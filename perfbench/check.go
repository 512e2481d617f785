package main

import (
	"fmt"

	"dart"
	"dart/internal/audit"
	"dart/internal/machine"
)

// checker counts the benchmark's operations and the ones that failed a
// known-answer check.  An operation is one function verdict of an audit
// pass, one job submission, or one replay of a hand witness.
type checker struct {
	attempted, failed int
	notes             []string
}

// record counts one operation; err non-nil marks it failed.
func (c *checker) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, err.Error())
		}
	}
}

// merge adds o's operations to c.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < 20 {
			c.notes = append(c.notes, n)
		}
	}
}

// failedShare is the share of attempted operations that failed.
func (c *checker) failedShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// bugRec is the part of a reported bug the checks read.
type bugRec struct {
	kind   string
	inputs map[string]int64
}

// checkVerdict compares one function's audit outcome (status and the
// kinds of its bugs) with the known answer.
func checkVerdict(want map[string]verdict, fn, status string, bugs []bugRec) error {
	v, ok := want[fn]
	if !ok {
		return fmt.Errorf("%s: no known answer for this function", fn)
	}
	if v == survives {
		if status != string(audit.OK) || len(bugs) > 0 {
			return fmt.Errorf("%s: want ok, got status %s with %d bugs", fn, status, len(bugs))
		}
		return nil
	}
	if status != string(audit.Buggy) {
		return fmt.Errorf("%s: want %s, got status %s", fn, v, status)
	}
	for _, b := range bugs {
		if b.kind == v.String() {
			return nil
		}
	}
	return fmt.Errorf("%s: want a %s bug, none reported", fn, v)
}

// checkReplays replays every bug through dart.Replay (Theorem 1(a)):
// each must end in the same outcome kind it was reported with.
func checkReplays(p *dart.Program, fn string, depth int, bugs []bugRec) error {
	for _, b := range bugs {
		rerr, err := dart.Replay(p, dart.Options{Toplevel: fn, Depth: depth}, b.inputs)
		if err != nil {
			return fmt.Errorf("%s: replay: %v", fn, err)
		}
		if rerr == nil {
			return fmt.Errorf("%s: reported %s bug does not replay (run ends normally)", fn, b.kind)
		}
		if got := rerr.Outcome.String(); got != b.kind {
			return fmt.Errorf("%s: reported %s bug replays as %s", fn, b.kind, got)
		}
	}
	return nil
}

// entryBugs extracts the bugs of an audit entry.
func entryBugs(e audit.Entry) []bugRec {
	if e.Report == nil {
		return nil
	}
	out := make([]bugRec, len(e.Report.Bugs))
	for i, b := range e.Report.Bugs {
		out[i] = bugRec{kind: b.Kind.String(), inputs: b.Inputs}
	}
	return out
}

// checkAudit records one operation per audit entry: the verdict must
// match the table and every bug must replay.
func checkAudit(c *checker, p *dart.Program, want map[string]verdict, res *audit.Result) {
	for _, e := range res.Entries {
		bugs := entryBugs(e)
		err := checkVerdict(want, e.Function, string(e.Status), bugs)
		if err == nil {
			err = checkReplays(p, e.Function, 1, bugs)
		}
		c.record(err)
	}
}

// checkGateWitness replays the hand witness of SolverGate's abort.
func checkGateWitness(p *dart.Program) error {
	rerr, err := dart.Replay(p, dart.Options{Toplevel: "gate"}, gateWitness)
	switch {
	case err != nil:
		return fmt.Errorf("gate witness: %v", err)
	case rerr == nil || rerr.Outcome != machine.Aborted:
		return fmt.Errorf("gate witness does not abort: %v", rerr)
	}
	return nil
}
