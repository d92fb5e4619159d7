//go:build race

package memsim

func init() { raceEnabled = true }
