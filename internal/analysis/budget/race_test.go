//go:build race

package budget

// raceEnabled reports a -race build (see steadyAllocs).
const raceEnabled = true
