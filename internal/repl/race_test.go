//go:build race

package repl

func init() { raceEnabled = true }
