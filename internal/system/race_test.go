//go:build race

package system

func init() { raceEnabled = true }
