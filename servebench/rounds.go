package main

import (
	"fmt"
	"time"
)

// stealLimit is the share of CPU time the hypervisor may steal during a
// round before the round is set aside as measuring the host; stretch bounds
// how far replacement rounds may extend a run's planned measuring time.
const (
	stealLimit = 0.05
	stretch    = 1.4
)

// roundSet is every round a measurement ran, each one or more phases, and
// which of them were clean.
type roundSet struct {
	all   [][]*phaseResult
	clean []bool
}

// runRounds runs rounds rounds of one, then more while fewer than rounds
// are clean and the budget of stretch × planned allows another.
func runRounds(planned time.Duration, one func(k int) []*phaseResult) roundSet {
	var rs roundSet
	deadline := time.Now().Add(time.Duration(float64(planned) * stretch))
	for k := 1; ; k++ {
		nClean := 0
		for _, c := range rs.clean {
			if c {
				nClean++
			}
		}
		if k > rounds && (nClean >= rounds || time.Now().Add(planned/rounds).After(deadline)) {
			return rs
		}
		ps := one(k)
		var steal, total uint64
		for _, p := range ps {
			steal += p.stealTicks
			total += p.totalTicks
		}
		rs.all = append(rs.all, ps)
		rs.clean = append(rs.clean, total == 0 || float64(steal) <= stealLimit*float64(total))
	}
}

// used is the rounds the metrics summarise: the clean ones, or every round
// when fewer than half of the planned rounds were clean and the host is
// reported as it was.
func (rs roundSet) used() [][]*phaseResult {
	var clean [][]*phaseResult
	for i, c := range rs.clean {
		if c {
			clean = append(clean, rs.all[i])
		}
	}
	if len(clean) < rounds/2 {
		return rs.all
	}
	return clean
}

func (rs roundSet) phases() []*phaseResult {
	var out []*phaseResult
	for _, r := range rs.all {
		out = append(out, r...)
	}
	return out
}

func (rs roundSet) opens() []*phaseResult {
	var out []*phaseResult
	for _, r := range rs.all {
		out = append(out, r[0])
	}
	return out
}

func (rs roundSet) String() string {
	return fmt.Sprintf("%d of %d rounds summarised (steal <= %g%%)", len(rs.used()), len(rs.all), stealLimit*100)
}
