package main

import (
	"testing"
	"time"
)

// Rounds with too much stolen CPU are replaced while the stretched budget
// lasts, and only clean rounds are summarised unless too few were clean.
func TestRunRoundsReplacesStolenRounds(t *testing.T) {
	round := func(steal uint64) []*phaseResult {
		return []*phaseResult{{stealTicks: steal, totalTicks: 100}}
	}
	rs := runRounds(time.Hour, func(k int) []*phaseResult { return round(0) })
	if len(rs.all) != rounds || len(rs.used()) != rounds {
		t.Fatalf("all clean: ran %d rounds, used %d; want %d", len(rs.all), len(rs.used()), rounds)
	}
	rs = runRounds(time.Hour, func(k int) []*phaseResult {
		if k <= 3 {
			return round(50)
		}
		return round(uint64(100 * stealLimit)) // at the limit is still clean
	})
	if len(rs.all) != rounds+3 || len(rs.used()) != rounds {
		t.Fatalf("3 stolen: ran %d rounds, used %d; want %d and %d", len(rs.all), len(rs.used()), rounds+3, rounds)
	}
	planned := 40 * time.Millisecond
	rs = runRounds(planned, func(k int) []*phaseResult {
		time.Sleep(planned / rounds)
		return round(50)
	})
	budget := stretch * rounds
	if most := int(budget) + 1; len(rs.all) < rounds || len(rs.all) > most {
		t.Fatalf("all stolen: ran %d rounds, want between %d and the stretched budget's %d", len(rs.all), rounds, most)
	}
	if len(rs.used()) != len(rs.all) {
		t.Fatalf("all stolen: used %d of %d rounds, want all", len(rs.used()), len(rs.all))
	}
}
