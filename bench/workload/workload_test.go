package workload

import (
	"bytes"
	"testing"
)

var testSpec = Spec{
	Mix: []Share{
		{Read, 1, 10}, {Insert, 1, 27}, {Update, 1, 30}, {Delete, 1, 20},
		{RMW, 1, 5}, {Scan, 20, 3}, {Update, 8, 3}, {Insert, 4, 1}, {SnapGet, 1, 1},
	},
	Keys:      1000,
	ZipfS:     1.1,
	Sizes:     []SizeShare{{64, 50}, {256, 35}, {1024, 12}, {4096, 3}},
	FreshBase: 1000,
}

func stream(t *testing.T, spec Spec, seed int64, n int) []byte {
	t.Helper()
	g, err := New(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	var op Op
	for i := 0; i < n; i++ {
		g.Next(&op)
		out = op.AppendTo(out)
	}
	return out
}

func TestOneSeedOneStream(t *testing.T) {
	a, b := stream(t, testSpec, 7, 5000), stream(t, testSpec, 7, 5000)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced two different op streams")
	}
	if c := stream(t, testSpec, 8, 5000); bytes.Equal(a, c) {
		t.Fatal("two seeds produced the same op stream")
	}
	uniform := testSpec
	uniform.ZipfS = 0
	if c := stream(t, uniform, 7, 5000); bytes.Equal(a, c) {
		t.Fatal("zipfian and uniform key draws produced the same stream")
	}
}

func TestStreamShape(t *testing.T) {
	g, err := New(testSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	var counts [nKinds]int
	hot := make(map[uint32]int)
	live := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		g.Next(&op)
		counts[op.Kind]++
		for _, k := range op.Keys[:op.NKeys()] {
			switch op.Kind {
			case Insert:
				if k < testSpec.FreshBase || live[k] {
					t.Fatalf("insert of key %d: not fresh", k)
				}
				live[k] = true
			case Delete:
				if !live[k] {
					t.Fatalf("delete of key %d, which this stream did not insert or already deleted", k)
				}
				delete(live, k)
			default:
				if int(k) >= testSpec.Keys {
					t.Fatalf("%v drew key %d outside the populated space", op.Kind, k)
				}
				hot[k]++
			}
		}
		if op.Kind == Scan && op.N != 20 {
			t.Fatalf("scan length %d", op.N)
		}
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("kind %v never generated", Kind(k))
		}
	}
	// Skew: the hottest key of a zipfian(1.1) draw over 1000 keys takes
	// far more than a uniform key's 0.1 %.
	max, total := 0, 0
	for _, c := range hot {
		total += c
		if c > max {
			max = c
		}
	}
	if max*20 < total {
		t.Errorf("hottest key drew %d of %d: no skew", max, total)
	}
}

func TestGeneratingAllocatesNothing(t *testing.T) {
	g, err := New(testSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	key := make([]byte, 0, KeyLen)
	val := make([]byte, 4096)
	if n := testing.AllocsPerRun(2000, func() {
		g.Next(&op)
		key = AppendKey(key[:0], op.Keys[0])
		FillValue(val[:256], op.Keys[0], 9)
		if _, ok := CheckValue(val[:256], op.Keys[0]); !ok {
			panic("value does not verify")
		}
	}); n != 0 {
		t.Fatalf("%v allocations per generated op", n)
	}
}

func TestKeysAndValuesRoundTrip(t *testing.T) {
	for _, idx := range []uint32{0, 9, 10, 99999, 1<<32 - 1} {
		key := AppendKey(nil, idx)
		got, ok := KeyIndex(key)
		if !ok || got != idx {
			t.Errorf("KeyIndex(%q) = %d,%v", key, got, ok)
		}
	}
	if bytes.Compare(AppendKey(nil, 99), AppendKey(nil, 100)) >= 0 {
		t.Error("key byte order is not index order")
	}
	if _, ok := KeyIndex([]byte("k00000x0000")); ok {
		t.Error("KeyIndex accepted a non-digit")
	}
	for _, n := range []int{MinValue, 13, 64, 100, 4096} {
		v := make([]byte, n)
		FillValue(v, 42, 7)
		if ver, ok := CheckValue(v, 42); !ok || ver != 7 {
			t.Fatalf("len %d: CheckValue = %d,%v", n, ver, ok)
		}
		if _, ok := CheckValue(v, 43); ok {
			t.Fatalf("len %d: value verified under the wrong key", n)
		}
		if n > MinValue {
			v[n-1] ^= 1
			if _, ok := CheckValue(v, 42); ok {
				t.Fatalf("len %d: a flipped body bit went unnoticed", n)
			}
		}
		if _, ok := CheckValue(v[:n-1], 42); ok && n > MinValue {
			t.Fatalf("len %d: a truncated value verified", n)
		}
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Mix: []Share{{Read, 1, 1}}, Keys: 10},
		{Mix: []Share{{Update, 9, 1}}, Keys: 10, Sizes: []SizeShare{{64, 1}}},
		{Mix: []Share{{Read, 1, 1}}, Keys: 10, Sizes: []SizeShare{{4, 1}}},
	}
	for i, s := range bad {
		if _, err := New(s, 1); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}
