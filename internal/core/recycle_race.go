//go:build race

package core

// Under the race detector every released image is overwritten with a
// fixed pattern, so a holder that reads it past the release rule fails
// its oracle.
func init() {
	poison = func(img []byte) {
		for i := range img {
			img[i] = 0xDB
		}
	}
}
