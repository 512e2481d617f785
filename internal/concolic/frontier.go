package concolic

import (
	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/rng"
	"dart/internal/symbolic"
)

// The frontier engine implements the alternative branch-selection orders
// of the paper's footnote 4 ("the next branch to be forced could be
// selected using a different strategy, e.g., randomly or in a
// breadth-first manner").
//
// The single-stack bookkeeping of Figs. 4-5 is only exhaustive when the
// *deepest* unexplored branch is flipped first: flipping a shallow entry
// truncates the stack and silently abandons the unexplored subtree of
// the original branch.  The frontier engine therefore keeps a work list
// of pending flips instead.  Each executed path enqueues one child per
// flippable conditional at index >= the path's own lower bound, and a
// child's bound is its flip index + 1 — the "generational search" rule
// (later popularized by SAGE) under which every feasible path is
// attempted exactly once regardless of pop order.  BFS pops the
// shallowest pending flip, RandomBranch a uniformly random one.
//
// Because a pending flip is a complete, self-contained program run —
// recorded prefix, negated predicate, parent input vector — the frontier
// is also the unit of parallelism: the work-stealing engine of
// parallel.go hands the same frontierItems to multiple workers, each
// processing items through the exact methods below (processItem,
// solveItem, childItems), so sequential and parallel searches share one
// code path for everything but scheduling.

// frontierItem is one pending flip: re-execute the recorded prefix with
// the flip's predicate negated, then extend.
type frontierItem struct {
	// prefix is the expected branch outcome sequence up to and not
	// including the flipped conditional (shared backing across children
	// of one run).
	prefix []bool
	// preds are the prefix's path-constraint predicates (shared).
	preds []symbolic.Pred
	// flip is the negated predicate of the flipped conditional.
	flip symbolic.Pred
	// flipTaken is the branch outcome the flipped conditional must now
	// show (the negation of what was observed).
	flipTaken bool
	// bound is the child generation's lower flip index.
	bound int
	// im is the input vector that drove the parent run (shared,
	// read-only, across the run's children).
	im symbolic.Vector
	// depth is the flip index (for BFS ordering).
	depth int
	// site is the flipped conditional's branch site (-1 for shape
	// decisions); pos its source position, filled only when the search
	// profiles (site attribution travels with the item because the
	// solving worker no longer holds the parent run's branch records).
	site int
	pos  string
}

// childItems builds the pending-flip children of a finished run: one
// item per flippable conditional at index >= bound (the generational
// expansion rule).  Prefix outcomes and predicates share one backing
// array across all children of the run.
func (e *engine) childItems(branches []machine.BranchRec, bound int) []frontierItem {
	outcomes := make([]bool, len(branches))
	var preds []symbolic.Pred
	// predsBefore[i] = number of predicates among branches[0..i).
	predsBefore := make([]int, len(branches)+1)
	for i, rec := range branches {
		outcomes[i] = rec.Taken
		predsBefore[i] = len(preds)
		if rec.HasPred {
			preds = append(preds, rec.Pred)
		}
	}
	predsBefore[len(branches)] = len(preds)
	im := e.im.Clone()
	var kids []frontierItem
	for j := bound; j < len(branches); j++ {
		rec := branches[j]
		if !rec.HasPred {
			continue
		}
		if rec.Decision && !rec.Taken && e.decisionDepth(rec) >= e.opts.MaxShapeDepth {
			if rec.Site >= 0 {
				e.exp.RecordDepthLimit(rec.Site, rec.Pos.String(), !rec.Taken)
			}
			continue // shape-depth cap
		}
		var pos string
		if e.prof != nil || e.exp != nil {
			pos = rec.Pos.String()
		}
		kids = append(kids, frontierItem{
			prefix:    outcomes[:j],
			preds:     preds[:predsBefore[j]:predsBefore[j]],
			flip:      rec.Pred.Negate(),
			flipTaken: !rec.Taken,
			bound:     j + 1,
			im:        im,
			depth:     j,
			site:      rec.Site,
			pos:       pos,
		})
	}
	return kids
}

// noteDropped accounts pending flips discarded on MaxFrontier overflow:
// the count reaches the report, the metrics registry, the trace, and —
// per discarded item — the explainer's ledger (each dropped flip is an
// abandoned subtree at a known site).  A completeness loss is never
// silent.
func (e *engine) noteDropped(items []frontierItem) {
	n := len(items)
	if n <= 0 {
		return
	}
	e.report.FrontierDropped += n
	e.metrics.Add(obs.CFrontierDropped, int64(n))
	if e.exp != nil {
		for _, it := range items {
			if it.site >= 0 {
				e.exp.RecordDropped(it.site, it.pos, it.flipTaken)
			}
		}
	}
	if e.obs != nil {
		e.emit(obs.Event{Kind: obs.FrontierDrop, Run: e.report.Runs, Dropped: n})
	}
}

// solveItem attempts one pending flip from its parent run's input
// vector.  On Sat it predicts the prefix-plus-flip branch sequence on
// the stack and returns true: the item is ready to execute.
func (e *engine) solveItem(item frontierItem) bool {
	pc := append(append(e.pcbuf[:0], item.preds...), item.flip)
	e.pcbuf = pc[:0]
	e.im = item.im.Clone()
	var path string
	if e.obs != nil {
		path = itemPath(item)
	}
	if !e.tryFlip(pc, item.depth, flipRef{ok: true, site: item.site, pos: item.pos, taken: item.flipTaken}, path) {
		return false
	}
	e.stack = make([]stackEntry, 0, len(item.prefix)+1)
	for _, b := range item.prefix {
		e.stack = append(e.stack, stackEntry{branch: b, done: true})
	}
	e.stack = append(e.stack, stackEntry{branch: item.flipTaken, done: true})
	return true
}

// processItem solves and executes one pending flip, returning the
// children it spawned and whether the search may continue (false means
// stop: Stopped is set on the engine's report).  It is the whole
// per-item pipeline shared by the sequential drain loop and the
// parallel workers; a parallel engine additionally reserves one slot of
// the shared run budget before executing (solver-only items — infeasible
// flips — consume no budget, matching the sequential loop's accounting).
func (e *engine) processItem(item frontierItem) (kids []frontierItem, cont bool) {
	if reason, stop := e.tripped(); stop {
		e.report.Stopped = reason
		return nil, false
	}
	if !e.solveItem(item) {
		return nil, true
	}
	if e.shared != nil && !e.shared.reserveRun() {
		e.report.Stopped = StopMaxRuns
		return nil, false
	}
	m, _, cont := e.execute()
	if !cont {
		return nil, false
	}
	if m == nil || e.mispredict {
		// A faulting item, or an imprecise prefix: the item is abandoned.
		return nil, true
	}
	return e.childItems(m.Branches, item.bound), true
}

// frontierRoot performs the fresh-random root executions of a frontier
// search until one completes without faulting, returning its children
// (cont=false when the search stopped instead; Stopped is set except on
// plain budget exhaustion, which finish labels StopMaxRuns).
func (e *engine) frontierRoot() (kids []frontierItem, cont bool) {
	for {
		if e.shared == nil && e.report.Runs >= e.opts.MaxRuns {
			return nil, false
		}
		if reason, stop := e.tripped(); stop {
			e.report.Stopped = reason
			return nil, false
		}
		if e.shared != nil && !e.shared.reserveRun() {
			e.report.Stopped = StopMaxRuns
			return nil, false
		}
		e.restart()
		m, _, cont := e.execute()
		if !cont {
			return nil, false
		}
		// A root run cannot mispredict (empty prediction); a faulting
		// one is retried with fresh randoms.
		if m != nil && !e.mispredict {
			return e.childItems(m.Branches, 0), true
		}
	}
}

// runFrontier drives the sequential frontier search. It reuses the
// engine's input registry, machine construction, and report accounting.
func (e *engine) runFrontier() {
	var queue []frontierItem
	if e.timeline != nil {
		// Timeline samples carry the pending-flip backlog.
		e.qlen = func() int { return len(queue) }
	}

	// Root run: fresh random inputs, no prediction.
	kids, cont := e.frontierRoot()
	if !cont {
		return
	}
	queue = e.enqueue(queue, kids)

	for len(queue) > 0 && e.report.Runs < e.opts.MaxRuns {
		var item frontierItem
		item, queue = pop(queue, e.opts.Strategy, e.rand)
		kids, cont := e.processItem(item)
		if !cont {
			return
		}
		queue = e.enqueue(queue, kids)
	}

	if len(queue) == 0 {
		markExhausted(e.report, e.opts.MaxRuns)
	}
}

// markExhausted ends a frontier search whose worklist drained.  It is
// Theorem 1(b) when every completeness flag held, nothing was dropped,
// no bug truncated a path, no fault skipped work, and the run budget
// never bit.
func markExhausted(r *Report, maxRuns int) {
	r.Stopped = StopExhausted
	if r.FrontierDropped == 0 && reportComplete(r) && r.Runs < maxRuns {
		r.Complete = true
	}
}

// enqueue appends kids to the sequential work list, enforcing
// MaxFrontier by dropping the deepest pending flips (counted, never
// silent) and sampling the backlog histogram.
func (e *engine) enqueue(queue []frontierItem, kids []frontierItem) []frontierItem {
	if len(kids) == 0 {
		return queue
	}
	queue = append(queue, kids...)
	if len(queue) > e.opts.MaxFrontier {
		e.noteDropped(queue[e.opts.MaxFrontier:])
		queue = queue[:e.opts.MaxFrontier]
	}
	e.metrics.Observe(obs.HFrontierQueue, int64(len(queue)))
	return queue
}

// itemPath is the forced target path of a frontier item: the recorded
// prefix outcomes followed by the flipped branch outcome, as a bit
// string aligned with RunEnd path encoding.
func itemPath(item frontierItem) string {
	b := make([]byte, len(item.prefix)+1)
	for i, taken := range item.prefix {
		b[i] = pathBit(taken)
	}
	b[len(item.prefix)] = pathBit(item.flipTaken)
	return string(b)
}

// pop removes q's next pending flip in strategy order — DFS newest
// first, BFS shallowest, RandomBranch uniformly from rnd — returning it
// and the rest of q.
func pop(q []frontierItem, strategy Strategy, rnd *rng.R) (frontierItem, []frontierItem) {
	idx := len(q) - 1
	switch strategy {
	case BFS:
		idx = 0
		for i := 1; i < len(q); i++ {
			if q[i].depth < q[idx].depth {
				idx = i
			}
		}
	case RandomBranch:
		idx = int(rnd.Intn(int64(len(q))))
	}
	item := q[idx]
	q[idx] = q[len(q)-1]
	return item, q[:len(q)-1]
}
