//go:build !race

package sumdsrv_test

// raceEnabled reports whether the test binary runs under the race
// detector, whose runtime and sync.Pool change allocation counts.
const raceEnabled = false
