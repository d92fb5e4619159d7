package torture

import "testing"

// mvccTxn builds a committed MVCC transaction: the given shared-keyspace
// writes plus the worker's counter stamp.
func mvccTxn(worker, index int, seq uint64, acked bool, kv ...string) Txn {
	t := Txn{Worker: worker, Index: index, Seq: seq, Acked: acked}
	for i := 0; i+1 < len(kv); i += 2 {
		t.Ops = append(t.Ops, Op{Key: kv[i], Value: kv[i+1]})
	}
	t.Ops = append(t.Ops, Op{Key: MVCCCounterKey(worker), Value: string(rune('0' + index))})
	return t
}

// TestVerifyMVCCTable shows the seq-order oracle can catch what it
// claims to: every survivor is base plus a prefix of the commits in
// global seq order, covering every acknowledged one.
func TestVerifyMVCCTable(t *testing.T) {
	k0, k1 := MVCCSharedKey(0), MVCCSharedKey(1)
	a1 := mvccTxn(0, 1, 1, true, k0, "a1", k1, "a1")
	b1 := mvccTxn(1, 1, 2, true, k0, "b1") // overwrites worker 0's key: no per-worker model exists
	a2 := mvccTxn(0, 2, 3, false, k1, "a2")
	hist := func(txns ...Txn) History { return History{Base: mkState(k1, "base"), Workers: 2, Txns: txns} }
	weak := hist(a1, b1, a2)
	weak.WeakDurability = true
	torn := applyAll(hist().Base, a1)
	torn[k0] = "b1" // b1's shared-key write without its counter stamp

	cases := []struct {
		name     string
		hist     History
		survivor map[string]string
		wantKind string // "" = must pass
	}{
		{"everything survived", hist(a1, b1, a2), applyAll(hist().Base, a1, b1, a2), ""},
		{"unacked tail lost", hist(a1, b1, a2), applyAll(hist().Base, a1, b1), ""},
		{"history order is not seq order", hist(a2, b1, a1), applyAll(hist().Base, a1, b1), ""},
		{"empty history keeps base", hist(), hist().Base, ""},
		{"torn commit matches no prefix", hist(a1, b1, a2), torn, "atomicity"},
		{"later commit without an earlier one", hist(a1, b1, a2), applyAll(hist().Base, a1, a2), "atomicity"},
		{"acked commit beyond the matched prefix", hist(a1, b1, a2), applyAll(hist().Base, a1), "durability"},
		{"the same loss under weak durability", weak, applyAll(hist().Base, a1), ""},
		{"weak durability still wants a prefix", weak, torn, "atomicity"},
		{"two commits share a seq", hist(a1, mvccTxn(1, 1, 1, true, k0, "b1")), applyAll(hist().Base, a1), "error"},
		{"commit without a seq", hist(a1, mvccTxn(1, 1, 0, true, k0, "b1")), applyAll(hist().Base, a1), "error"},
		{"worker's commits out of issue order", hist(mvccTxn(0, 2, 1, true, k0, "x"), mvccTxn(0, 1, 2, true, k0, "y")), hist().Base, "order"},
		{"key outside the shared keyspace", hist(a1), applyAll(hist().Base, a1, Txn{Ops: []Op{{Key: "w00/k01", Value: "stray"}}}), "resurrection"},
		{"another worker's counter", hist(a1), applyAll(hist().Base, a1, Txn{Ops: []Op{{Key: MVCCCounterKey(2), Value: "1"}}}), "resurrection"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := VerifyMVCC(tc.hist, tc.survivor)
			if tc.wantKind == "" {
				if len(vs) != 0 {
					t.Fatalf("want clean, got %v", vs)
				}
				return
			}
			if len(vs) == 0 || vs[0].Kind != tc.wantKind {
				t.Fatalf("want a leading %s violation, got %v", tc.wantKind, vs)
			}
		})
	}
}
