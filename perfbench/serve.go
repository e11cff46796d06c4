package main

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/threadpool"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// The serve-chat open loop. Requests arrive one every serveGap for the whole
// measured time, about half the scheduler's saturated capacity on two
// cores: queues form behind long prompts and drain between them. The SLO
// limits sit far above the 2-core medians (TTFT p95 about 100 ms, mean gap
// a few ms), so only a regression or a growing backlog misses them.
//
// The bounded medians are taken per window of windowReqs consecutive
// requests (3 s of arrivals) and then over the windows, as the offline
// workloads take theirs per call and then over calls: a few seconds of
// contention on a shared host move a minority of windows, not the result.
const (
	serveGap      = 100 * time.Millisecond
	shapeSeed     = 1
	serveSlots    = 8
	prefixBytes   = 16 << 20
	chunkTokens   = 64
	serveTTFTSLO  = 500 * time.Millisecond
	serveGapSLO   = 50 * time.Millisecond
	lateBound     = 100 * time.Millisecond
	serveSpanRing = 1 << 19
	windowReqs    = 30
	serveIntraOp  = 1
	familyHead    = 96 // within the 98-token system prompt every chat prompt opens with
)

// served is one request of the open loop as seen from outside the scheduler.
type served struct {
	req    workload.Request
	due    time.Time
	late   time.Duration // submission time minus due time
	ttft   time.Duration // due time to first token
	gaps   []time.Duration
	tokens []int
	err    error
}

// serveTrace is the request mix for d: chat sessions sharing four
// system-prompt families, with every sixth request an unshared long
// summarize prompt. The shapes (lengths, budgets, sessions) come from
// shapeSeed and are the same for every run; seed draws a permutation of the
// vocabulary that rewrites every prompt token, which keeps all prefix
// sharing intact. So every seed offers the same work on different tokens.
// The generators' arrival times set only the order within each kind;
// requests are sent one every serveGap.
func serveTrace(seed int64, d time.Duration, vocab int) workload.Trace {
	n := max(6, int(d/serveGap))
	chat := workload.Chat(workload.Spec{
		Seed: shapeSeed, N: n - n/6, Vocab: vocab, Horizon: d,
		MinPromptLen: 96, MaxPromptLen: 192, MinNewTokens: 8, MaxNewTokens: 32,
	})
	sum := workload.Summarize(workload.Spec{
		Seed: shapeSeed + 1, N: n / 6, Vocab: vocab, Horizon: d,
		MinPromptLen: 64, MaxPromptLen: 384, MinNewTokens: 8, MaxNewTokens: 16,
	})
	perm := rand.New(rand.NewSource(seed)).Perm(vocab)
	out := make(workload.Trace, 0, n)
	for i := 0; i < n; i++ {
		var r workload.Request
		if i%6 == 5 {
			r, sum = sum[0], sum[1:]
		} else {
			r, chat = chat[0], chat[1:]
		}
		r.At = time.Duration(i) * serveGap
		prompt := make([]int, len(r.Prompt))
		for j, tok := range r.Prompt {
			prompt[j] = perm[tok]
		}
		r.Prompt = prompt
		out = append(out, r)
	}
	return out
}

type serveBench struct {
	mod   *model.Model
	eng   *runtime.Engine
	sched *serve.Scheduler
	est   *perfmodel.EstCollector
}

// newServeBench builds the model, the engine and the scheduler.
func newServeBench() (*serveBench, error) {
	cfg := model.Tiny()
	mod, err := model.NewModel(rand.New(rand.NewSource(modelSeed)), cfg)
	if err != nil {
		return nil, err
	}
	// Tiny's 64-wide matrices gain nothing from a second worker (both widths
	// gave the same medians on a 2-vCPU VM). One keeps each op on the
	// scheduler's goroutine, with 40% fewer context switches, so fewer thread
	// wake-ups that a busy shared host can delay.
	pol := runtime.Policy{IntraOp: serveIntraOp, Prefetch: true}
	eng, err := runtime.NewEngine(mod, pol, arenaBytes, threadpool.MustNew(serveIntraOp))
	if err != nil {
		return nil, err
	}
	est := perfmodel.NewEstCollector()
	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = serveSlots
	scfg.QueueDepth = 4096 // never the limit: the open loop must not be refused for queue room
	scfg.PrefixCacheBytes = prefixBytes
	scfg.ChunkTokens = chunkTokens
	scfg.LatencySampleCap = 1 << 16
	scfg.EstObserver = est
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}
	return &serveBench{mod: mod, eng: eng, sched: sched, est: est}, nil
}

// replay is one open-loop pass of a trace through a fresh scheduler.
type replay struct {
	reqs       []*served
	wall       time.Duration // first due time to last completion
	summary    runtime.ServeSummary
	prefix     prefixCounts // the replay's own, without the warm-up
	counts     counts
	arenaPeak  int64
	mallocs    uint64
	allocBytes uint64
	mem        memUse
	est        *perfmodel.EstCollector
}

// openLoop submits every request at its due time from this goroutine and
// reads each stream on a goroutine of its own, so a slow scheduler delays
// no later submission. It returns once every stream has finished.
func (b *serveBench) openLoop(tr workload.Trace, rec *xtrace.Recorder) ([]*served, time.Duration) {
	out := make([]*served, len(tr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range tr {
		s := &served{req: r, due: start.Add(r.At)}
		out[i] = s
		time.Sleep(time.Until(s.due))
		t0 := time.Now()
		s.late = t0.Sub(s.due)
		st, err := b.sched.Submit(context.Background(), serve.Request{Prompt: r.Prompt, MaxNewTokens: r.MaxNewTokens})
		rec.Record("bench.submit", laneBench, t0, time.Since(t0), xtrace.NoLabels)
		if err != nil {
			s.err = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.consume(st, rec)
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// consume reads the stream as it arrives, timing the first token from the
// due time and every later gap, then collects the result with Wait.
func (s *served) consume(st *serve.Stream, rec *xtrace.Recorder) {
	s.gaps = make([]time.Duration, 0, s.req.MaxNewTokens)
	var last time.Time
	for range st.Tokens() {
		now := time.Now()
		if last.IsZero() {
			s.ttft = now.Sub(s.due)
			rec.Record("bench.first_token", laneBench, s.due, s.ttft, xtrace.NoLabels)
		} else {
			s.gaps = append(s.gaps, now.Sub(last))
		}
		last = now
	}
	s.tokens, s.err = st.Wait()
	rec.Record("bench.wait", laneBench, s.due, time.Since(s.due), xtrace.NoLabels)
}

// prefixCounts are the prefix cache's admission counts.
type prefixCounts struct {
	hits, misses, reused int64
}

func readPrefix(s runtime.ServeSummary) prefixCounts {
	return prefixCounts{hits: s.PrefixHits, misses: s.PrefixMisses, reused: s.PrefixReusedTokens}
}

func (p prefixCounts) minus(o prefixCounts) prefixCounts {
	return prefixCounts{hits: p.hits - o.hits, misses: p.misses - o.misses, reused: p.reused - o.reused}
}

// warmPrefixes serves, untimed, one request per system-prompt family of tr:
// the first familyHead tokens of the family's first chat prompt. Every chat
// turn then finds its family in the prefix cache, so the hit and miss counts
// do not depend on whether a family's first turns overlap in time.
func (b *serveBench) warmPrefixes(tr workload.Trace) error {
	seen := map[string]bool{}
	for _, r := range tr {
		if r.Kind != "chat" || len(r.Prompt) < familyHead {
			continue
		}
		head := r.Prompt[:familyHead]
		if key := fmt.Sprint(head); !seen[key] {
			seen[key] = true
			st, err := b.sched.Submit(context.Background(), serve.Request{Prompt: head, MaxNewTokens: 1})
			if err != nil {
				return err
			}
			if _, err := st.Wait(); err != nil {
				return err
			}
		}
	}
	return nil
}

// run warms b's prefix cache, replays tr through b's scheduler, then closes
// it.
func (b *serveBench) run(tr workload.Trace, rec *xtrace.Recorder) (*replay, error) {
	if err := b.warmPrefixes(tr); err != nil {
		return nil, fmt.Errorf("warming the prefix cache: %w", err)
	}
	prefix0 := readPrefix(b.sched.Metrics().Serve)
	b.eng.SetTracer(rec)
	before := readCounts(b.eng.Stats())
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	reqs, wall := b.openLoop(tr, rec)
	b.sched.Close()
	goruntime.ReadMemStats(&m1)
	mem := readMem()
	b.eng.SetTracer(nil)
	summary := b.sched.Metrics().Serve
	return &replay{
		reqs: reqs, wall: wall,
		summary:    summary,
		prefix:     readPrefix(summary).minus(prefix0),
		counts:     readCounts(b.eng.Stats()).minus(before),
		arenaPeak:  b.eng.ArenaPeak(),
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mem:        mem,
		est:        b.est,
	}, nil
}

// serveCounts are the serving run's exact counts for one seed. Weight bytes
// are left out: weights stream once per batch step, and how requests share
// steps depends on timing.
type serveCounts struct {
	Requests     int   `json:"requests"`
	Tokens       int64 `json:"tokens"`
	KVUp         int64 `json:"kv_up_bytes"`
	KVDown       int64 `json:"kv_down_bytes"`
	Quantize     int64 `json:"quantize_ops"`
	Dequantize   int64 `json:"dequantize_ops"`
	PrefixHits   int64 `json:"prefix_hits"`
	PrefixMisses int64 `json:"prefix_misses"`
}

func runServe(opt options) (*report, error) {
	var b *serveBench
	setup, err := timeSetups(func() (func(), error) {
		nb, err := newServeBench()
		if err != nil {
			return nil, err
		}
		b = nb
		return nb.sched.Close, nil
	})
	if err != nil {
		return nil, err
	}

	measured := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		measured /= 2
	}
	tr := serveTrace(opt.seed, measured, b.mod.Cfg.Vocab)
	untraced, err := b.run(tr, nil)
	if err != nil {
		return nil, err
	}
	var traced *replay
	var rec *xtrace.Recorder
	if opt.trace {
		// The traced half replays the same trace on a fresh scheduler, so the
		// two halves differ only in tracing.
		nb, err := newServeBench()
		if err != nil {
			return nil, err
		}
		rec = xtrace.NewRecorder(serveSpanRing)
		if traced, err = nb.run(tr, rec); err != nil {
			return nil, err
		}
	}

	rep := &report{attempted: len(tr)}
	var late time.Duration
	for _, r := range []*replay{untraced, traced} {
		if r == nil {
			continue
		}
		for _, s := range r.reqs {
			late = max(late, s.late)
			if s.err != nil {
				rep.failed++
			}
		}
	}
	if late > lateBound {
		return nil, fmt.Errorf("run invalid: the open-loop generator ran %v late, past its %v bound", late, lateBound)
	}
	if opt.trace {
		rep.attempted *= 2
	}
	rep.set("bench.gen_late_max_ms", "ms", ms(late), rep.attempted)
	rep.set("bench.failed_pct", "%", 100*float64(rep.failed)/float64(rep.attempted), rep.attempted)

	rep.mismatch = checkServed(b.mod, untraced.reqs)
	u := untraced.counts
	c := serveCounts{Requests: len(tr), Tokens: u.Tokens, KVUp: u.KVUp, KVDown: u.KVDown,
		Quantize: u.Quantize, Dequantize: u.Dequantize,
		PrefixHits: untraced.prefix.hits, PrefixMisses: untraced.prefix.misses}
	if err := checkRepeat(fmt.Sprintf("serve-chat-%s", measured), opt.seed, c); err != nil {
		return nil, err
	}

	serveEndToEnd(rep, untraced, setup)
	if opt.trace {
		servePerLayer(rep, untraced, traced, rec)
	}
	return rep, nil
}

// checkServed compares every completed request with a solo greedy decode of
// its prompt by the reference forward pass, width() requests at a time.
func checkServed(mod *model.Model, reqs []*served) error {
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = checkOne(mod, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

func checkOne(mod *model.Model, s *served) error {
	if s.err != nil {
		return nil
	}
	want, err := mod.Generate(nil, 1, [][]int{s.req.Prompt}, s.req.MaxNewTokens)
	if err != nil {
		return err
	}
	if d := firstDiff(s.tokens, want[0]); d != "" {
		return fmt.Errorf("differs from model.Generate: %s", d)
	}
	return nil
}

func serveEndToEnd(rep *report, r *replay, setup []float64) {
	var ttft, tpot []float64
	var tokens int
	met := 0
	for _, s := range r.reqs {
		if s.err != nil {
			continue
		}
		tokens += len(s.tokens)
		ttft = append(ttft, ms(s.ttft))
		gap := s.meanGap()
		if len(s.gaps) > 0 {
			tpot = append(tpot, ms(gap))
		}
		if s.ttft <= serveTTFTSLO && gap <= serveGapSLO {
			met++
		}
	}
	rep.set("tok_s", "1/s", float64(tokens)/r.wall.Seconds(), len(r.reqs))
	rep.set("ttft_p50_ms", "ms", windowedMedian(r.reqs, func(s *served) time.Duration { return s.ttft }), len(ttft))
	rep.set("ttft_p95_ms", "ms", quantile(ttft, 0.95), len(ttft))
	rep.set("tpot_p50_ms", "ms", tpotP50(r), len(tpot))
	rep.set("tpot_p95_ms", "ms", quantile(tpot, 0.95), len(tpot))
	rep.set("slo_ok_pct", "%", 100*float64(met)/float64(len(r.reqs)), len(r.reqs))
	r.mem.report(rep)
	rep.set("setup_s", "s", median(setup), len(setup))
}

// meanGap is the request's time per output token after the first.
func (s *served) meanGap() time.Duration {
	if len(s.gaps) == 0 {
		return 0
	}
	var sum time.Duration
	for _, g := range s.gaps {
		sum += g
	}
	return sum / time.Duration(len(s.gaps))
}

func servePerLayer(rep *report, untraced, traced *replay, rec *xtrace.Recorder) {
	spans := rec.Spans()
	sum := traced.summary
	c := untraced.counts
	n := len(untraced.reqs)
	qw := spanMs(spans, xtrace.TaskQueueWait)
	rep.set("serve.queue_wait_p50_ms", "ms", median(qw), len(qw))
	rep.set("serve.queue_wait_p95_ms", "ms", quantile(qw, 0.95), len(qw))
	admit := spanMs(spans, xtrace.TaskAdmit)
	rep.set("serve.admit_p50_ms", "ms", median(admit), len(admit))
	steps := spanMs(spans, xtrace.TaskStep)
	rep.set("serve.step_p50_ms", "ms", median(steps), len(steps))
	rep.set("serve.step_p95_ms", "ms", quantile(steps, 0.95), len(steps))
	rep.set("serve.batch_occupancy", "count", sum.AvgOccupancy, int(sum.BatchSteps))
	pc := traced.prefix
	lookups := pc.hits + pc.misses
	rep.set("serve.prefix_hit_ratio", "ratio", float64(pc.hits)/float64(max(1, lookups)), int(lookups))
	var promptTokens int
	for _, s := range traced.reqs {
		if s.err == nil {
			promptTokens += len(s.req.Prompt)
		}
	}
	rep.set("serve.prefix_reused_token_share", "ratio", float64(pc.reused)/float64(max(1, promptTokens)), promptTokens)
	rep.set("serve.rejected", "count", float64(sum.Rejected+sum.Rejected429), len(traced.reqs))
	rep.set("serve.spilled", "count", float64(sum.Spilled), len(traced.reqs))
	rep.set("serve.evicted", "count", float64(sum.Evicted), len(traced.reqs))
	tpotQ, prefillQ := traced.est.Accuracy(perfmodel.EstTPOT), traced.est.Accuracy(perfmodel.EstPrefill)
	rep.set("perfmodel.tpot_qerr_p50", "ratio", tpotQ.Median(), tpotQ.Count())
	rep.set("perfmodel.prefill_qerr_p50", "ratio", prefillQ.Median(), prefillQ.Count())

	prefill := spanMs(spans, xtrace.TaskPrefill)
	rep.set("runtime.prefill_ms", "ms", median(prefill), len(prefill))
	chunks := spanMs(spans, xtrace.TaskPrefillChunk)
	rep.set("runtime.prefill_chunk_p50_ms", "ms", median(chunks), len(chunks))
	// The scheduler's step span wraps exactly one Session.Step, the runtime's
	// decode step for the whole batch.
	rep.set("runtime.decode_step_p50_ms", "ms", median(steps), len(steps))
	per, nSteps := perStepMs(spans, xtrace.TaskStep, xtrace.TaskLoadWgt, xtrace.TaskLoadKV,
		xtrace.TaskStoreKV, xtrace.TaskCompute, xtrace.TaskDequantWgt, xtrace.TaskDequantKV, xtrace.TaskQuantKV)
	rep.set("runtime.load_weight_ms_per_step", "ms", per[xtrace.TaskLoadWgt], nSteps)
	rep.set("runtime.load_cache_ms_per_step", "ms", per[xtrace.TaskLoadKV], nSteps)
	rep.set("runtime.store_cache_ms_per_step", "ms", per[xtrace.TaskStoreKV], nSteps)
	rep.set("model.compute_ms_per_step", "ms", per[xtrace.TaskCompute], nSteps)
	rep.set("quant.dequant_weight_ms_per_step", "ms", per[xtrace.TaskDequantWgt], nSteps)
	rep.set("quant.dequant_kv_ms_per_step", "ms", per[xtrace.TaskDequantKV], nSteps)
	rep.set("quant.quant_kv_ms_per_step", "ms", per[xtrace.TaskQuantKV], nSteps)
	rep.set("tensor.gflops", "GFLOP/s", 0, 0)

	rep.set("runtime.weight_up_bytes_per_token", "B/token", perToken(c.WeightUp, c.Tokens), n)
	rep.set("runtime.kv_up_bytes_per_token", "B/token", perToken(c.KVUp, c.Tokens), n)
	rep.set("runtime.kv_down_bytes_per_token", "B/token", perToken(c.KVDown, c.Tokens), n)
	rep.set("runtime.allocs_per_token", "1/token", perToken(int64(untraced.mallocs), c.Tokens), n)
	rep.set("runtime.alloc_bytes_per_token", "B/token", perToken(int64(untraced.allocBytes), c.Tokens), n)
	rep.set("runtime.arena_peak_bytes", "B", float64(untraced.arenaPeak), 1)
	rep.set("runtime.retries", "count", float64(c.Retries), n)
	rep.set("quant.quantize_ops", "count", float64(c.Quantize), n)
	rep.set("quant.dequantize_ops", "count", float64(c.Dequantize), n)

	// Serving throughput follows the arrival rate, so tracing overhead shows
	// in the decode gaps instead: traced against untraced tpot p50.
	if base, withTrace := tpotP50(untraced), tpotP50(traced); base > 0 {
		rep.set("xtrace.overhead_pct", "%", 100*(withTrace-base)/base, len(traced.reqs))
	} else {
		rep.set("xtrace.overhead_pct", "%", 0, 0)
	}
	rep.set("xtrace.dropped_spans", "count", float64(rec.Dropped()), 1)
}

// tpotP50 is the windowed median of the requests' mean gaps.
func tpotP50(r *replay) float64 {
	return windowedMedian(r.reqs, func(s *served) time.Duration {
		if len(s.gaps) == 0 {
			return -1
		}
		return s.meanGap()
	})
}

// windowedMedian splits reqs, in arrival order, into windows of about
// windowReqs requests, takes the median of f over each window's completed
// requests (skipping negative values), and returns the median of those.
func windowedMedian(reqs []*served, f func(*served) time.Duration) float64 {
	n := max(1, len(reqs)/windowReqs)
	windows := make([][]float64, n)
	for i, s := range reqs {
		if v := f(s); s.err == nil && v >= 0 {
			w := i * n / len(reqs)
			windows[w] = append(windows[w], ms(v))
		}
	}
	var meds []float64
	for _, w := range windows {
		if len(w) > 0 {
			meds = append(meds, median(w))
		}
	}
	return median(meds)
}
