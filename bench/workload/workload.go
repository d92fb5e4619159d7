// Package workload turns a seed into the benchmark's inputs: a stream
// of operations (kind, keys, value sizes) and the bytes of every key
// and value. The program under test sees nothing else. Generating an
// operation, a key or a value allocates nothing, because the
// benchmark's allocs-per-op figure is process-wide.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Kind names what an operation does; what it calls is the workload's
// business.
type Kind uint8

const (
	Read    Kind = iota // point read of one existing key
	Insert              // write N fresh keys atomically
	Update              // overwrite N existing keys atomically
	Delete              // delete the oldest key this stream inserted
	RMW                 // read one existing key, write it back changed
	Scan                // read N consecutive records from an existing key
	SnapGet             // point read of one existing key on a snapshot
	nKinds
)

var kindNames = [nKinds]string{"read", "insert", "update", "delete", "rmw", "scan", "snapget"}

func (k Kind) String() string { return kindNames[k] }

// MaxBatch is the most keys one operation names.
const MaxBatch = 8

// Share is one row of an operation mix: Weight parts of the stream are
// Kind operations touching N records each.
type Share struct {
	Kind   Kind
	N      int
	Weight int
}

// SizeShare is one row of a value-size table.
type SizeShare struct {
	Bytes  int
	Weight int
}

// Spec describes one operation stream.
type Spec struct {
	Mix []Share
	// Keys is the pre-populated key space; existing-key operations draw
	// from it. ZipfS > 1 skews the draw (rank r with probability
	// ∝ 1/(1+r)^s); 0 draws uniformly.
	Keys  int
	ZipfS float64
	// Sizes is the value-size table for writes.
	Sizes []SizeShare
	// FreshBase is the first key index Insert hands out. Streams that
	// run side by side get disjoint ranges at or above Keys.
	FreshBase uint32
}

// Op is one generated operation on N records. Keys[:NKeys()] are key
// indices and Sizes[:NKeys()] the value lengths for writes.
type Op struct {
	Kind  Kind
	N     int
	Keys  [MaxBatch]uint32
	Sizes [MaxBatch]int
}

// NKeys is how many of op.Keys are set: N, except that a Scan names
// only the key it starts from.
func (op *Op) NKeys() int {
	if op.Kind == Scan {
		return 1
	}
	return op.N
}

// Gen generates a Spec's stream for one seed.
type Gen struct {
	spec     Spec
	rng      *rand.Rand
	zipf     *rand.Zipf
	mixTotal int
	szTotal  int
	scatter  uint64
	inserted uint32 // fresh keys handed out
	deleted  uint32 // of those, how many Delete has consumed
}

// New returns the generator of spec's stream for seed.
func New(spec Spec, seed int64) (*Gen, error) {
	g := &Gen{spec: spec, rng: rand.New(rand.NewSource(seed))}
	for _, s := range spec.Mix {
		if s.N < 1 || (s.N > MaxBatch && s.Kind != Scan) || s.Weight < 0 || s.Kind >= nKinds {
			return nil, fmt.Errorf("workload: bad mix row %+v", s)
		}
		g.mixTotal += s.Weight
	}
	for _, s := range spec.Sizes {
		if s.Bytes < MinValue || s.Weight < 0 {
			return nil, fmt.Errorf("workload: bad size row %+v", s)
		}
		g.szTotal += s.Weight
	}
	if g.mixTotal == 0 || g.szTotal == 0 || spec.Keys < 1 {
		return nil, fmt.Errorf("workload: empty mix, size table or key space")
	}
	if spec.ZipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, spec.ZipfS, 1, uint64(spec.Keys-1))
	}
	// Hot ranks are scattered over the key space by a multiplier coprime
	// with Keys, so that skew concentrates on keys, not on one leaf page.
	g.scatter = 2654435761 % uint64(spec.Keys)
	for gcd(g.scatter, uint64(spec.Keys)) != 1 {
		g.scatter++
	}
	return g, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *Gen) existing() uint32 {
	var rank uint64
	if g.zipf != nil {
		rank = g.zipf.Uint64()
	} else {
		rank = uint64(g.rng.Intn(g.spec.Keys))
	}
	return uint32(rank * g.scatter % uint64(g.spec.Keys))
}

func (g *Gen) size() int {
	r := g.rng.Intn(g.szTotal)
	for _, s := range g.spec.Sizes {
		if r -= s.Weight; r < 0 {
			return s.Bytes
		}
	}
	panic("unreachable: size table weights changed after New")
}

// Next fills op with the stream's next operation.
func (g *Gen) Next(op *Op) {
	r := g.rng.Intn(g.mixTotal)
	var row Share
	for _, s := range g.spec.Mix {
		if r -= s.Weight; r < 0 {
			row = s
			break
		}
	}
	if row.Kind == Delete && g.deleted == g.inserted {
		// Nothing of this stream's own to delete yet: insert instead, so
		// every write operation still mutates.
		row.Kind = Insert
	}
	op.Kind, op.N = row.Kind, row.N
	for i := 0; i < op.NKeys(); i++ {
		switch row.Kind {
		case Insert:
			op.Keys[i] = g.spec.FreshBase + g.inserted
			g.inserted++
		case Delete:
			op.Keys[i] = g.spec.FreshBase + g.deleted
			g.deleted++
		default:
			op.Keys[i] = g.existing()
		}
		if row.Kind == Insert || row.Kind == Update || row.Kind == RMW {
			op.Sizes[i] = g.size()
		}
	}
}

// AppendTo appends a canonical encoding of op to dst; two streams are
// the same stream exactly when their encodings are byte-identical.
func (op *Op) AppendTo(dst []byte) []byte {
	dst = append(dst, byte(op.Kind), byte(op.N))
	for i := 0; i < op.NKeys(); i++ {
		dst = binary.LittleEndian.AppendUint32(dst, op.Keys[i])
		dst = binary.LittleEndian.AppendUint32(dst, uint32(op.Sizes[i]))
	}
	return dst
}

// KeyLen is the length of every key.
const KeyLen = 11

// AppendKey appends key idx's bytes ("k" and ten decimal digits, so
// byte order is index order) to dst.
func AppendKey(dst []byte, idx uint32) []byte {
	var b [KeyLen]byte
	b[0] = 'k'
	for i := KeyLen - 1; i > 0; i-- {
		b[i] = byte('0' + idx%10)
		idx /= 10
	}
	return append(dst, b[:]...)
}

// KeyIndex is AppendKey's inverse; ok is false for bytes AppendKey
// never produces.
func KeyIndex(key []byte) (idx uint32, ok bool) {
	if len(key) != KeyLen || key[0] != 'k' {
		return 0, false
	}
	var v uint64
	for _, c := range key[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return uint32(v), v <= 1<<32-1
}

// MinValue is the shortest value: the self-describing header.
const MinValue = 12

// next is one xorshift64 step, the value body's byte source.
func next(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func bodySeed(key, version uint32) uint64 {
	return (uint64(key)<<32|uint64(version))*0x9E3779B97F4A7C15 | 1
}

// FillValue writes into dst the one value that (key, version,
// len(dst)) names: a header carrying all three, then a body derived
// from them. A reader can therefore tell from a value alone which
// write produced it and whether every byte survived.
func FillValue(dst []byte, key, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:], key)
	binary.LittleEndian.PutUint32(dst[4:], version)
	binary.LittleEndian.PutUint32(dst[8:], uint32(len(dst)))
	x := bodySeed(key, version)
	body := dst[MinValue:]
	for len(body) >= 8 {
		x = next(x)
		binary.LittleEndian.PutUint64(body, x)
		body = body[8:]
	}
	x = next(x)
	for i := range body {
		body[i] = byte(x >> (8 * i))
	}
}

// CheckValue verifies that v is exactly what FillValue writes for key
// at some version, and returns that version.
func CheckValue(v []byte, key uint32) (version uint32, ok bool) {
	if len(v) < MinValue ||
		binary.LittleEndian.Uint32(v[0:]) != key ||
		binary.LittleEndian.Uint32(v[8:]) != uint32(len(v)) {
		return 0, false
	}
	version = binary.LittleEndian.Uint32(v[4:])
	x := bodySeed(key, version)
	body := v[MinValue:]
	for len(body) >= 8 {
		x = next(x)
		if binary.LittleEndian.Uint64(body) != x {
			return 0, false
		}
		body = body[8:]
	}
	x = next(x)
	for i := range body {
		if body[i] != byte(x>>(8*i)) {
			return 0, false
		}
	}
	return version, true
}
