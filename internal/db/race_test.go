//go:build race

package db

func init() { raceEnabled = true }
