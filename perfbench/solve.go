package main

// The solve workload: a seeded stream of the paper's instances. The
// precedence family is packed by the divide-and-conquer algorithm and
// bounded by its lower bound; the release family is packed by the APTAS
// and bounded by the configuration LP through a release.Solver, whose
// column pool the repeating width sets hit.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"strippack/internal/core/precedence"
	"strippack/internal/core/release"
	"strippack/internal/geom"
	"strippack/internal/workload"
)

// solveSpec sizes the solve workload. A round solves dags precedence
// instances and perK release instances for each K, interleaved.
type solveSpec struct {
	dagN, dagLayers int
	dagP            float64
	dags            int
	fpgaN           int
	ks              []int
	releases        float64 // release times spread over [0, releases]
	perK            int
	eps             float64
	passes          int // identical passes per round; each instance counts its fastest
	minRounds       int
}

var solveFull = solveSpec{
	dagN: 2000, dagLayers: 16, dagP: 0.2, dags: 32,
	fpgaN: 40, ks: []int{4, 5, 6}, releases: 3, perK: 32,
	eps: 1, passes: 2, minRounds: 16,
}

// solveItem is one instance with what its checks need, computed once.
type solveItem struct {
	in    *geom.Instance
	k     int     // 0 for a precedence instance
	bound float64 // DC: Theorem 2.3's guarantee
}

// solveOut is one instance's result in one round.
type solveOut struct {
	p       *geom.Packing
	k       int // as solveItem.k
	rects   int
	elapsed time.Duration
	// precedence
	lb           float64
	calls, bands int
	// release
	rep *release.Report
	opt float64 // configuration-LP optimum from the Solver
	cg  *release.CGStats
}

// genSolve draws input set n: the warm-up instances and the round's
// instances, seeded from the workload seed and the set.
func genSolve(s *solveSpec, seed int64, n int) (items, warm []solveItem, err error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	for _, k := range s.ks {
		warm = append(warm, solveItem{in: workload.FPGA(rng, s.fpgaN, k, s.releases), k: k})
	}
	for i := 0; i < max(s.dags, s.perK); i++ {
		if i < s.dags {
			in := workload.DAGWorkload(rng, s.dagN, s.dagLayers, s.dagP)
			g, err := precedence.GuaranteeBound(in)
			if err != nil {
				return nil, nil, err
			}
			items = append(items, solveItem{in: in, bound: g})
		}
		if i < s.perK {
			for _, k := range s.ks {
				items = append(items, solveItem{in: workload.FPGA(rng, s.fpgaN, k, s.releases), k: k})
			}
		}
	}
	return items, warm, nil
}

// solveRound is one round: the solver set-up, then every instance.
type solveRound struct {
	setups []time.Duration // one per pass
	outs   []solveOut
	differ []int // instances whose later passes differed from the first
	live   uint64
	pool   release.SolverStats
	// traced only
	spans []span
}

func runSolve(spec solveSpec, o *options, h testHooks) (*outcome, error) {
	// The figures come from the faster half of the rounds.
	if n := (spec.minRounds + 1) / 2 * (spec.dags + spec.perK*len(spec.ks)); n < minP99Samples {
		return nil, fmt.Errorf("run sized to %d instances; submit_p99_ms needs at least %d", n, minP99Samples)
	}
	if spec.passes < 1 {
		return nil, fmt.Errorf("run sized to %d passes per round", spec.passes)
	}
	out := newOutcome()
	var plain, traced []*solveRound
	var pd procDelta
	var qs []quality
	start := time.Now()
	// Every round solves its own input set, so a run covers more distinct
	// instances than one round holds. Round 0 is a checked warm-up. The
	// quality metrics are means over sets 0 to minRounds-1, which every
	// run covers.
	for i := 0; len(out.errs) == 0; i++ {
		items, warm, err := genSolve(&spec, o.seed, i)
		if err != nil {
			return nil, err
		}
		tr := o.trace && i > 0 && i%2 == 0
		var rpd *procDelta
		if i > 0 && !tr {
			rpd = &pd
		}
		r, err := solveOnce(items, warm, &spec, i, tr, rpd)
		if err != nil {
			return nil, err
		}
		if h.mutatePack != nil {
			h.mutatePack(i, &r.outs[0])
		}
		checkSolve(items, r, &spec, i, out)
		if i < spec.minRounds && len(out.errs) == 0 {
			qs = append(qs, measureQuality(items, r.outs))
		}
		// Keep only what the metrics need once the packings are checked.
		for j := range r.outs {
			r.outs[j].p = nil
		}
		switch {
		case i == 0:
			start = time.Now()
			continue
		case tr:
			traced = append(traced, r)
			out.spans.add(r.spans...)
		default:
			plain = append(plain, r)
		}
		enough := len(plain) >= spec.minRounds && (!o.trace || len(traced) >= spec.minRounds)
		if enough && time.Since(start) >= o.seconds {
			break
		}
	}
	solveE2E(out, plain, meanQuality(qs))
	if o.trace {
		solveLayers(out, traced, plain, &pd)
	}
	return out, nil
}

// solveOnce solves the round's instances in s.passes identical passes,
// each with its own fresh Solver, and keeps for every instance the fastest
// of its solve times. A hypervisor stall lands on some passes and rarely on
// all, so the figures track the code rather than the host; every pass
// must also reproduce the first one's heights and bounds exactly. The
// first pass's packings are kept until the round's checks, as a caller
// would hold its results.
func solveOnce(items, warm []solveItem, s *solveSpec, round int, traced bool, pd *procDelta) (*solveRound, error) {
	r := &solveRound{}
	base := liveHeap()
	var a procSample
	if pd != nil {
		a = sampleProc()
	}
	outs, solver, setup, spans, err := solvePass(items, warm, s, round, traced)
	if err != nil {
		return nil, err
	}
	r.setups, r.pool = []time.Duration{setup}, solver.Stats()
	for pass := 1; pass < s.passes; pass++ {
		again, _, setup, _, err := solvePass(items, warm, s, round, false)
		if err != nil {
			return nil, err
		}
		for i := range outs {
			o, o2 := &outs[i], &again[i]
			if o.p.Height() != o2.p.Height() || o.lb != o2.lb || o.opt != o2.opt {
				r.differ = append(r.differ, i)
			}
			o.elapsed = min(o.elapsed, o2.elapsed)
		}
		r.setups = append(r.setups, setup)
	}
	if pd != nil {
		pd.add(a, sampleProc())
	}
	if live := liveHeap(); live > base {
		r.live = live - base
	}
	r.outs, r.spans = outs, spans
	return r, nil
}

// solvePass builds a fresh Solver, warms its pool with one instance per
// width set (the set-up), then solves every instance in order.
func solvePass(items, warm []solveItem, s *solveSpec, round int, traced bool) ([]solveOut, *release.Solver, time.Duration, []span, error) {
	outs := make([]solveOut, len(items))
	var spans []span
	t0 := time.Now()
	solver := release.NewSolver(release.CGOptions{})
	for _, w := range warm {
		if _, _, err := solver.Solve(w.in); err != nil {
			return nil, nil, 0, nil, fmt.Errorf("warming the column pool: %w", err)
		}
	}
	setup := time.Since(t0)
	rec := func(name string, i int, start, end time.Time, parent string) {
		if traced {
			spans = append(spans, span{Name: name, Start: start, End: end, Req: reqID(round, 0, i), Parent: parent})
		}
	}
	for i, it := range items {
		o := &outs[i]
		o.k, o.rects = it.k, it.in.N()
		t0 := time.Now()
		if it.k == 0 {
			p, st, err := precedence.DC(it.in, nil)
			if err != nil {
				return nil, nil, 0, nil, fmt.Errorf("instance %d: DC: %w", i, err)
			}
			t1 := time.Now()
			lb, err := precedence.LowerBound(it.in)
			if err != nil {
				return nil, nil, 0, nil, fmt.Errorf("instance %d: lower bound: %w", i, err)
			}
			t2 := time.Now()
			o.p, o.lb, o.calls, o.bands = p, lb, st.Calls, st.Bands
			rec("precedence.dc", i, t0, t1, "solve.instance")
			rec("precedence.lower_bound", i, t1, t2, "solve.instance")
		} else {
			p, rep, err := release.Pack(it.in, release.Options{Epsilon: s.eps, K: it.k})
			if err != nil {
				return nil, nil, 0, nil, fmt.Errorf("instance %d: APTAS: %w", i, err)
			}
			t1 := time.Now()
			fs, cg, err := solver.Solve(it.in)
			if err != nil {
				return nil, nil, 0, nil, fmt.Errorf("instance %d: configuration LP: %w", i, err)
			}
			t2 := time.Now()
			o.p, o.rep, o.opt, o.cg = p, rep, fs.Height, cg
			rec("release.pack", i, t0, t1, "solve.instance")
			rec("release.cg_solve", i, t1, t2, "solve.instance")
		}
		o.elapsed = time.Since(t0)
		rec("solve.instance", i, t0, t0.Add(o.elapsed), "")
	}
	return outs, solver, setup, spans, nil
}

// checkSolve validates every packing and its paper guarantee: Theorem
// 2.3's bound for DC, (1+ε)·OPTf + (W+1)(R+1) for the APTAS.
func checkSolve(items []solveItem, r *solveRound, s *solveSpec, round int, out *outcome) {
	for i, it := range items {
		o := &r.outs[i]
		out.attempted++
		err := o.p.Validate()
		h := o.p.Height()
		switch {
		case err != nil:
		case it.k == 0 && h > it.bound+geom.Eps:
			err = fmt.Errorf("DC height %g exceeds its guarantee %g", h, it.bound)
		case it.k > 0 && h > (1+s.eps)*o.rep.FractionalHeight+o.rep.AdditiveBound+geom.Eps:
			err = fmt.Errorf("APTAS height %g exceeds (1+ε)·%g + %g", h, o.rep.FractionalHeight, o.rep.AdditiveBound)
		}
		if err == nil && slices.Contains(r.differ, i) {
			err = fmt.Errorf("a later pass gave a different height or bound")
		}
		if err != nil {
			out.failed++
			out.checkf("round %d instance %d: %v", round, i, err)
		}
	}
}

// quality is the deterministic packing quality of one round: mean area
// utilization, mean wait of a rectangle past the earliest start its
// release or predecessors allow, and the mean height ratio of the two
// families, each over its own bound (DC over the lower bound, APTAS over
// the configuration-LP optimum).
type quality struct {
	util, wait, ratio, dcRatio, apRatio float64
	n                                   int
}

func measureQuality(items []solveItem, outs []solveOut) quality {
	var q quality
	var nDC, nAP, rects int
	for i, it := range items {
		p := outs[i].p
		h := p.Height()
		q.util += it.in.Area() / (it.in.StripWidth() * h)
		ready := make([]float64, it.in.N())
		for j, rc := range it.in.Rects {
			ready[j] = rc.Release
		}
		for _, e := range it.in.Prec {
			u := e[0]
			ready[e[1]] = math.Max(ready[e[1]], p.Pos[u].Y+it.in.Rects[u].H)
		}
		for j := range ready {
			q.wait += p.Pos[j].Y - ready[j]
		}
		rects += len(ready)
		if it.k == 0 {
			q.dcRatio += h / outs[i].lb
			nDC++
		} else {
			q.apRatio += h / outs[i].opt
			nAP++
		}
	}
	q.util /= float64(len(items))
	q.wait /= float64(rects)
	q.dcRatio /= float64(max(nDC, 1))
	q.apRatio /= float64(max(nAP, 1))
	q.ratio = (q.dcRatio + q.apRatio) / 2
	q.n = len(items)
	return q
}

func meanQuality(qs []quality) quality {
	var m quality
	for _, q := range qs {
		m.util += q.util / float64(len(qs))
		m.wait += q.wait / float64(len(qs))
		m.ratio += q.ratio / float64(len(qs))
		m.dcRatio += q.dcRatio / float64(len(qs))
		m.apRatio += q.apRatio / float64(len(qs))
		m.n += q.n
	}
	return m
}

// solveE2E reports the end-to-end metrics over the untraced rounds. As in
// the serve workloads, the rounds are ranked by throughput and the figures
// come from the faster half (fasterHalf); those over all rounds are printed
// beside them.
func solveE2E(out *outcome, rounds []*solveRound, q quality) {
	var setups, lives []float64
	for _, r := range rounds {
		for _, d := range r.setups {
			setups = append(setups, d.Seconds())
		}
		lives = append(lives, float64(r.live)/(1<<20))
	}
	all := solveTimes(rounds)
	kept := solveTimes(fasterHalf(rounds, func(r *solveRound) float64 { return solveTimes([]*solveRound{r}).reqRates[0] }))
	out.e2e.add("setup_s", "s", median(setups), len(setups))
	out.e2e.add("tasks_per_s", "tasks/s", median(kept.taskRates), len(kept.taskRates))
	out.e2e.add("instances_per_s", "1/s", median(kept.reqRates), len(kept.reqRates))
	out.e2e.add("submit_p50_ms", "ms", quantile(kept.rts, 0.50), len(kept.rts))
	out.e2e.add("submit_p99_ms", "ms", quantile(kept.rts, 0.99), len(kept.rts))
	out.e2e.add("utilization", "ratio", q.util, q.n)
	out.e2e.add("mean_wait", "tu", q.wait, q.n)
	out.e2e.add("height_ratio", "ratio", q.ratio, q.n)
	out.e2e.add("live_heap_mb", "MB", median(lives), len(lives))
	out.e2e.add("shed_ratio", "ratio", 0, q.n)
	out.notes = append(out.notes,
		fmt.Sprintf("height ratio: DC over lower bound %.4f, APTAS over OPTf %.4f", q.dcRatio, q.apRatio),
		fmt.Sprintf("instances %d over %d rounds; the faster %d rounds give the figures above", len(all.rts), len(rounds), len(kept.reqRates)),
		fmt.Sprintf("all rounds: instances_per_s %.6g (median), submit_p50_ms %.6g, submit_p99_ms %.6g (n=%d)",
			median(all.reqRates), quantile(all.rts, 0.5), quantile(all.rts, 0.99), len(all.rts)))
}

// solveTimes are the timing figures of some rounds, as roundTimes: each
// round's rectangle and instance rates over its summed solve time, and
// every instance's solve time.
func solveTimes(rounds []*solveRound) roundTimes {
	var t roundTimes
	for _, r := range rounds {
		var total time.Duration
		rects := 0
		for _, o := range r.outs {
			t.rts = append(t.rts, ms(o.elapsed))
			total += o.elapsed
			rects += o.rects
		}
		t.taskRates = append(t.taskRates, ratio(float64(rects), total.Seconds()))
		t.reqRates = append(t.reqRates, ratio(float64(len(r.outs)), total.Seconds()))
	}
	return t
}

// solveLayers reports the solver layers from the traced rounds' spans and
// stats, and the process counters from the untraced ones.
func solveLayers(out *outcome, traced, plain []*solveRound, pd *procDelta) {
	l := out.layer
	byName := map[string][]float64{}
	var tracedTotal, plainTotal time.Duration
	inst, passes := 0, 0
	for _, r := range traced {
		for _, s := range r.spans {
			byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		}
		for _, o := range r.outs {
			tracedTotal += o.elapsed
		}
	}
	for _, r := range plain {
		for _, o := range r.outs {
			plainTotal += o.elapsed
			inst++
		}
		passes = len(r.setups)
	}
	dc, lb := byName["precedence.dc"], byName["precedence.lower_bound"]
	pk, cg := byName["release.pack"], byName["release.cg_solve"]
	l.set("precedence.dc_ms_p50", quantile(dc, 0.5), len(dc))
	l.set("precedence.dc_ms_p99", quantile(dc, 0.99), len(dc))
	l.set("precedence.lower_bound_ms_p50", quantile(lb, 0.5), len(lb))
	l.set("release.pack_ms_p50", quantile(pk, 0.5), len(pk))
	l.set("release.pack_ms_p99", quantile(pk, 0.99), len(pk))
	l.set("release.cg_solve_ms_p50", quantile(cg, 0.5), len(cg))

	var calls, bands, rounds, cols, pivots []float64
	hits, solves := 0, 0
	for _, r := range traced {
		for _, o := range r.outs {
			if o.k == 0 {
				calls = append(calls, float64(o.calls))
				bands = append(bands, float64(o.bands))
			} else {
				rounds = append(rounds, float64(o.cg.Rounds))
				cols = append(cols, float64(o.cg.Columns))
				pivots = append(pivots, float64(o.cg.Pivots))
			}
		}
		hits += r.pool.PoolHits
		solves += r.pool.Solves
	}
	l.set("precedence.dc_calls_mean", mean(calls), len(calls))
	l.set("precedence.dc_bands_mean", mean(bands), len(bands))
	l.set("release.cg_rounds_mean", mean(rounds), len(rounds))
	l.set("release.cg_columns_mean", mean(cols), len(cols))
	l.set("release.pool_hit_ratio", float64(hits)/float64(max(solves, 1)), solves)
	l.set("lp.pivots_per_solve", mean(pivots), len(pivots))
	pd.set(l, false, passes*inst, len(plain)) // every pass solves every instance
	tracedRate := ratio(float64(len(byName["solve.instance"])), tracedTotal.Seconds())
	plainRate := ratio(float64(inst), plainTotal.Seconds())
	l.set("trace.overhead_share", 1-ratio(tracedRate, plainRate), len(traced)+len(plain))
	out.notes = append(out.notes, fmt.Sprintf("trace overhead: traced %.1f instances/s vs untraced %.1f instances/s", tracedRate, plainRate))
}
