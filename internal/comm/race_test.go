//go:build race

package comm

func init() { raceEnabled = true }
