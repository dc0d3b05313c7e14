//go:build race

package main

// raceEnabled reports a race-detector build, whose instrumentation
// samples carry no repository frame and so skew profile shares.
const raceEnabled = true
