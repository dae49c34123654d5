//go:build race

package fltest

const raceEnabled = true
