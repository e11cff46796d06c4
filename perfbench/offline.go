package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/threadpool"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// modelSeed fixes the weights of every workload's model, so --seed varies
// only the inputs and the offline-quant digest holds for any seed.
const modelSeed = 20250

// arenaBytes is the simulated GPU memory; every workload fits in it.
const arenaBytes = 1 << 30

// laneBench is the xtrace lane of the spans the benchmark records around its
// own calls into the program.
const laneBench = "bench"

// offlineSpec is one offline workload: a prompt batch decoded by
// Engine.GenerateStream over and over until the measured time is up.
type offlineSpec struct {
	name      string
	policy    runtime.Policy // IntraOp is set to width() at run time
	prompts   int
	promptLen int
	genLen    int
	// reference compares the tokens with model.Model.Generate; otherwise a
	// fixed canary batch is compared with the digest in digests.json.
	reference bool
	// SLO limits on time to first token and on a sequence's mean gap between
	// tokens, about twice the medians measured on a 2-core machine.
	ttftLimit, gapLimit time.Duration
}

var q4g64 = quant.Config{Bits: 4, GroupSize: 64}

// offlineQuant is the paper's throughput regime: 4-bit weights and KV
// streamed every layer and consumed by the fused quantized-domain kernels.
var offlineQuant = offlineSpec{
	name: "offline-quant",
	policy: runtime.Policy{
		GPUBatch: 4, Prefetch: true, QuantKernels: true,
		QuantWeights: true, WeightCfg: q4g64, QuantKV: true, KVCfg: q4g64,
	},
	prompts: 4, promptLen: 256, genLen: 32,
	ttftLimit: 3 * time.Second, gapLimit: 100 * time.Millisecond,
}

// offlineRaw streams fp32 weights and KV every layer: quant does no work and
// the KV fetch dominates each step.
var offlineRaw = offlineSpec{
	name:    "offline-raw",
	policy:  runtime.Policy{GPUBatch: 4, Prefetch: true},
	prompts: 4, promptLen: 128, genLen: 32, reference: true,
	ttftLimit: 1500 * time.Millisecond, gapLimit: 100 * time.Millisecond,
}

// canaryPrompts and canaryGen shape the fixed batch whose tokens must match
// digests.json: two 64-token prompts, 16 tokens each.
const (
	canaryPrompts = 2
	canaryLen     = 64
	canaryGen     = 16
	canarySeed    = 7
)

//go:embed digests.json
var digestsJSON []byte

// seededPrompts draws n prompts of length plen from seed.
func seededPrompts(seed int64, n, plen, vocab int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, plen)
		for j := range out[i] {
			out[i][j] = rng.Intn(vocab)
		}
	}
	return out
}

// offlineCall is what one timed GenerateStream call measured.
type offlineCall struct {
	wall   time.Duration
	ttft   time.Duration
	gaps   []time.Duration
	tokens [][]int
	counts counts
	// Go heap allocations during the call.
	mallocs, allocBytes uint64
}

type offlineBench struct {
	spec    offlineSpec
	mod     *model.Model
	eng     *runtime.Engine
	prompts [][]int
}

// call runs one GenerateStream over the prompt batch. With a recorder it
// also records the benchmark's spans: the whole call and each step callback.
func (b *offlineBench) call(rec *xtrace.Recorder) (offlineCall, error) {
	c := offlineCall{gaps: make([]time.Duration, 0, b.spec.genLen)}
	// Start every call from a collected heap, so the collector's timing in
	// one call does not carry into the next one's speed or memory.
	goruntime.GC()
	before := readCounts(b.eng.Stats())
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	t0 := time.Now()
	last := t0
	out, err := b.eng.GenerateStream(context.Background(), b.prompts, b.spec.genLen, func(step int, _ []int) bool {
		now := time.Now()
		if step == 0 {
			c.ttft = now.Sub(t0)
		} else {
			c.gaps = append(c.gaps, now.Sub(last))
		}
		rec.Record("bench.step", laneBench, last, now.Sub(last), xtrace.At(step, -1, -1))
		last = now
		return true
	})
	c.wall = time.Since(t0)
	rec.Record("bench.generate", laneBench, t0, c.wall, xtrace.NoLabels)
	goruntime.ReadMemStats(&m1)
	if err != nil {
		return c, err
	}
	c.tokens = out
	c.counts = readCounts(b.eng.Stats()).minus(before)
	c.mallocs = m1.Mallocs - m0.Mallocs
	c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return c, nil
}

// window calls GenerateStream until the next call would end past d (at least
// once) and checks that every call produced the same tokens and counts.
func (b *offlineBench) window(d time.Duration, rec *xtrace.Recorder, calls []offlineCall) ([]offlineCall, error) {
	start := time.Now()
	for {
		c, err := b.call(rec)
		if err != nil {
			return nil, err
		}
		if len(calls) > 0 {
			if c.counts != calls[0].counts {
				return nil, fmt.Errorf("nondeterministic counts: call %d gave %+v, call 0 gave %+v", len(calls), c.counts, calls[0].counts)
			}
			if digest(c.tokens) != digest(calls[0].tokens) {
				return nil, fmt.Errorf("nondeterministic tokens: call %d differs from call 0", len(calls))
			}
		}
		calls = append(calls, c)
		if time.Since(start)+c.wall > d {
			return calls, nil
		}
	}
}

func runOffline(opt options, spec offlineSpec) (*report, error) {
	cfg := model.Small()
	spec.policy.IntraOp = width()
	b := &offlineBench{spec: spec, prompts: seededPrompts(opt.seed, spec.prompts, spec.promptLen, cfg.Vocab)}
	setup, err := timeSetups(func() (func(), error) {
		mod, err := model.NewModel(rand.New(rand.NewSource(modelSeed)), cfg)
		if err != nil {
			return nil, err
		}
		eng, err := runtime.NewEngine(mod, spec.policy, arenaBytes, threadpool.MustNew(width()))
		b.mod, b.eng = mod, eng
		return nil, err
	})
	if err != nil {
		return nil, err
	}

	rep := &report{}
	// Warm-up, untimed: the canary batch (checked against its digest when
	// the workload has no reference) lets caches fill and lazy set-up finish.
	canary, err := b.canary()
	if err != nil {
		return nil, err
	}
	if !spec.reference {
		if err := checkDigest(spec.name, canary); err != nil {
			rep.mismatch = err
		}
	}

	measured := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		measured /= 2
	}
	calls, err := b.window(measured, nil, nil)
	if err != nil {
		return nil, err
	}
	mem := readMem()
	untraced := len(calls)

	var spans []xtrace.Span
	var rec *xtrace.Recorder
	if opt.trace {
		rec = xtrace.NewRecorder(1 << 18)
		b.eng.SetTracer(rec)
		calls, err = b.window(measured, rec, calls)
		b.eng.SetTracer(nil)
		if err != nil {
			return nil, err
		}
		spans = rec.Spans()
	}

	if spec.reference && rep.mismatch == nil {
		want, err := b.mod.Generate(threadpool.MustNew(width()), width(), b.prompts, spec.genLen)
		if err != nil {
			return nil, err
		}
		for i := range want {
			if d := firstDiff(calls[0].tokens[i], want[i]); d != "" {
				rep.mismatch = fmt.Errorf("sequence %d differs from model.Generate: %s", i, d)
				break
			}
		}
	}
	if err := checkRepeat(spec.name, opt.seed, calls[0].counts); err != nil {
		return nil, err
	}

	rep.attempted = len(calls) * spec.prompts
	b.endToEnd(rep, calls[:untraced], setup)
	mem.report(rep)
	if opt.trace {
		b.perLayer(rep, calls[:untraced], calls[untraced:], spans, rec.Dropped())
	}
	return rep, nil
}

// canary decodes the fixed canary batch and returns its tokens.
func (b *offlineBench) canary() ([][]int, error) {
	prompts := seededPrompts(canarySeed, canaryPrompts, canaryLen, b.mod.Cfg.Vocab)
	return b.eng.Generate(context.Background(), prompts, canaryGen)
}

func checkDigest(name string, tokens [][]int) error {
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("parsing digests.json: %w", err)
	}
	if got := digest(tokens); got != want[name] {
		return fmt.Errorf("canary digest %s, digests.json has %q", got, want[name])
	}
	return nil
}

func (b *offlineBench) endToEnd(rep *report, calls []offlineCall, setup []float64) {
	var tokS, ttft, tpot, gaps []float64
	met := 0
	for _, c := range calls {
		tokS = append(tokS, float64(c.counts.Tokens)/c.wall.Seconds())
		ttft = append(ttft, ms(c.ttft))
		var sum time.Duration
		var callGaps []float64
		for _, g := range c.gaps {
			callGaps = append(callGaps, ms(g))
			sum += g
		}
		tpot = append(tpot, median(callGaps))
		gaps = append(gaps, callGaps...)
		// Every sequence of a batch shares its first token and its gaps.
		if c.ttft <= b.spec.ttftLimit && sum <= b.spec.gapLimit*time.Duration(len(c.gaps)) {
			met++
		}
	}
	rep.set("tok_s", "1/s", median(tokS), len(tokS))
	rep.set("ttft_p50_ms", "ms", median(ttft), len(ttft))
	rep.set("ttft_p95_ms", "ms", quantile(ttft, 0.95), len(ttft))
	rep.set("tpot_p50_ms", "ms", median(tpot), len(gaps))
	rep.set("tpot_p95_ms", "ms", quantile(gaps, 0.95), len(gaps))
	rep.set("slo_ok_pct", "%", 100*float64(met)/float64(len(calls)), len(calls)*b.spec.prompts)
	rep.set("setup_s", "s", median(setup), len(setup))
}

func (b *offlineBench) perLayer(rep *report, untraced, traced []offlineCall, spans []xtrace.Span, dropped uint64) {
	c := untraced[0].counts
	n := len(untraced)
	var allocs, allocBytes, tokS, tracedTokS []float64
	for _, u := range untraced {
		allocs = append(allocs, perToken(int64(u.mallocs), u.counts.Tokens))
		allocBytes = append(allocBytes, perToken(int64(u.allocBytes), u.counts.Tokens))
		tokS = append(tokS, float64(u.counts.Tokens)/u.wall.Seconds())
	}
	for _, t := range traced {
		tracedTokS = append(tracedTokS, float64(t.counts.Tokens)/t.wall.Seconds())
	}
	rep.set("runtime.weight_up_bytes_per_token", "B/token", perToken(c.WeightUp, c.Tokens), n)
	rep.set("runtime.kv_up_bytes_per_token", "B/token", perToken(c.KVUp, c.Tokens), n)
	rep.set("runtime.kv_down_bytes_per_token", "B/token", perToken(c.KVDown, c.Tokens), n)
	rep.set("runtime.allocs_per_token", "1/token", median(allocs), n)
	rep.set("runtime.alloc_bytes_per_token", "B/token", median(allocBytes), n)
	rep.set("runtime.arena_peak_bytes", "B", float64(b.eng.ArenaPeak()), 1)
	rep.set("runtime.retries", "count", float64(c.Retries), n)
	rep.set("quant.quantize_ops", "count", float64(c.Quantize), n)
	rep.set("quant.dequantize_ops", "count", float64(c.Dequantize), n)

	rep.set("runtime.prefill_ms", "ms", median(spanMs(spans, xtrace.TaskPrefill)), len(traced))
	steps := spanMs(spans, xtrace.TaskDecodeStep)
	rep.set("runtime.decode_step_p50_ms", "ms", median(steps), len(steps))
	per, nSteps := perStepMs(spans, xtrace.TaskDecodeStep, xtrace.TaskLoadWgt, xtrace.TaskLoadKV,
		xtrace.TaskStoreKV, xtrace.TaskCompute, xtrace.TaskDequantWgt, xtrace.TaskDequantKV, xtrace.TaskQuantKV)
	rep.set("runtime.load_weight_ms_per_step", "ms", per[xtrace.TaskLoadWgt], nSteps)
	rep.set("runtime.load_cache_ms_per_step", "ms", per[xtrace.TaskLoadKV], nSteps)
	rep.set("runtime.store_cache_ms_per_step", "ms", per[xtrace.TaskStoreKV], nSteps)
	rep.set("model.compute_ms_per_step", "ms", per[xtrace.TaskCompute], nSteps)
	rep.set("quant.dequant_weight_ms_per_step", "ms", per[xtrace.TaskDequantWgt], nSteps)
	rep.set("quant.dequant_kv_ms_per_step", "ms", per[xtrace.TaskDequantKV], nSteps)
	rep.set("quant.quant_kv_ms_per_step", "ms", per[xtrace.TaskQuantKV], nSteps)
	if per[xtrace.TaskCompute] > 0 {
		rep.set("tensor.gflops", "GFLOP/s", b.decodeFlops()/(per[xtrace.TaskCompute]*1e6), nSteps)
	} else {
		rep.set("tensor.gflops", "GFLOP/s", 0, 0)
	}

	rep.set("xtrace.overhead_pct", "%", 100*(median(tokS)-median(tracedTokS))/median(tokS), len(traced))
	rep.set("xtrace.dropped_spans", "count", float64(dropped), 1)
	notServed(rep)
}

// decodeFlops is the analytic work of one decode step averaged over a call:
// attention at the step's sequence length plus the MLP, for every layer.
func (b *offlineBench) decodeFlops() float64 {
	cfg := b.mod.Cfg
	w := trace.Workload{PromptLen: b.spec.promptLen, GenLen: b.spec.genLen, GPUBatch: b.spec.prompts, NumBatches: 1}
	var sum float64
	for step := 1; step < b.spec.genLen; step++ {
		sum += float64(cfg.Layers) * (cfg.AttnFlopsDecode(w, b.spec.promptLen+step) + cfg.MLPFlopsDecode(w))
	}
	return sum / float64(b.spec.genLen-1)
}

// notServed fills the serving-only per-layer metrics, which have no samples
// on an offline workload.
func notServed(rep *report) {
	for _, name := range []string{
		"serve.queue_wait_p50_ms", "serve.queue_wait_p95_ms", "serve.admit_p50_ms",
		"serve.step_p50_ms", "serve.step_p95_ms", "runtime.prefill_chunk_p50_ms",
		"bench.gen_late_max_ms",
	} {
		rep.set(name, "ms", 0, 0)
	}
	rep.set("serve.batch_occupancy", "count", 0, 0)
	rep.set("serve.prefix_hit_ratio", "ratio", 0, 0)
	rep.set("serve.prefix_reused_token_share", "ratio", 0, 0)
	rep.set("serve.rejected", "count", 0, 0)
	rep.set("serve.spilled", "count", 0, 0)
	rep.set("serve.evicted", "count", 0, 0)
	rep.set("perfmodel.tpot_qerr_p50", "ratio", 0, 0)
	rep.set("perfmodel.prefill_qerr_p50", "ratio", 0, 0)
	rep.set("bench.failed_pct", "%", 0, 1)
}
