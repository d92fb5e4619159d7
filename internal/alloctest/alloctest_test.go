package alloctest

import "testing"

var sink []byte

// One 64-byte buffer every other call is half an allocation and 32 bytes
// per call: the mean is not rounded down to 0.
func TestPerRunKeepsFractions(t *testing.T) {
	i := 0
	allocs, bytes := PerRun(1000, func() {
		if i++; i%2 == 0 {
			sink = make([]byte, 64)
		}
	})
	if allocs < 0.5 || allocs > 0.55 || bytes < 32 || bytes > 40 {
		t.Fatalf("PerRun = %.3f allocs, %.1f bytes per call; want 0.5 and 32", allocs, bytes)
	}
}
