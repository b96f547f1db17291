//go:build race

package hostsim_test

// raceEnabled reports a -race build, whose detector allocates on the
// simulator's behalf.
const raceEnabled = true
