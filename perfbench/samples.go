package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/runtime"
	"repro/internal/xtrace"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanMs returns the durations of the named spans in milliseconds.
func spanMs(spans []xtrace.Span, name string) []float64 {
	var out []float64
	for _, d := range xtrace.Durations(spans, name) {
		out = append(out, ms(d))
	}
	return out
}

// perStepMs aggregates the spans that start inside one of the step spans
// (decode steps), so prefill work is left out, and returns each task's
// milliseconds per step and the step count.
func perStepMs(spans []xtrace.Span, stepName string, tasks ...string) (map[string]float64, int) {
	var steps []xtrace.Span
	for _, s := range spans {
		if s.Name == stepName {
			steps = append(steps, s)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].Start < steps[j].Start })
	inStep := func(s xtrace.Span) bool {
		i := sort.Search(len(steps), func(i int) bool { return steps[i].Start > s.Start }) - 1
		return i >= 0 && s.Start <= steps[i].End()
	}
	sum := xtrace.AggregateIf(spans, inStep)
	out := map[string]float64{}
	for _, t := range tasks {
		if len(steps) > 0 {
			out[t] = ms(sum.Total(t)) / float64(len(steps))
		}
	}
	return out, len(steps)
}

// counts are the engine's exact counters: for one seed they must repeat on
// every call and in every run.
type counts struct {
	Tokens     int64 `json:"tokens"`
	WeightUp   int64 `json:"weight_up_bytes"`
	KVUp       int64 `json:"kv_up_bytes"`
	KVDown     int64 `json:"kv_down_bytes"`
	Quantize   int64 `json:"quantize_ops"`
	Dequantize int64 `json:"dequantize_ops"`
	Retries    int64 `json:"retries"`
}

// readCounts snapshots the counters; the engine must be idle.
func readCounts(st *runtime.Stats) counts {
	return counts{
		Tokens:     st.TokensGeneratedCount(),
		WeightUp:   st.WeightUpBytes,
		KVUp:       st.KVUpBytes,
		KVDown:     st.KVDownBytes,
		Quantize:   st.QuantizeOps,
		Dequantize: st.DequantizeOps,
		Retries:    st.TotalRetries(),
	}
}

func (c counts) minus(o counts) counts {
	return counts{
		Tokens: c.Tokens - o.Tokens, WeightUp: c.WeightUp - o.WeightUp,
		KVUp: c.KVUp - o.KVUp, KVDown: c.KVDown - o.KVDown,
		Quantize: c.Quantize - o.Quantize, Dequantize: c.Dequantize - o.Dequantize,
		Retries: c.Retries - o.Retries,
	}
}

func perToken(n, tokens int64) float64 {
	if tokens == 0 {
		return 0
	}
	return float64(n) / float64(tokens)
}

// digest is a stable hash of generated token sequences.
func digest(seqs [][]int) string {
	h := sha256.New()
	for _, seq := range seqs {
		for _, tok := range seq {
			h.Write(strconv.AppendInt(nil, int64(tok), 10))
			h.Write([]byte{' '})
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// firstDiff describes where two token sequences first differ, or "" when
// they are equal.
func firstDiff(got, want []int) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("token %d is %d, want %d", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d tokens, want %d", len(got), len(want))
	}
	return ""
}

// repeatDir keeps each run's exact counts, keyed by workload, seed and a
// hash of the benchmark binary, so that a later run of the same build on the
// same seed is compared with them.
const repeatDir = ".bench_build/perfbench/counts"

// checkRepeat fails when an earlier run of this binary on this workload and
// seed recorded different exact counts; the first such run records them.
func checkRepeat(workload string, seed int64, c any) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(repeatDir, fmt.Sprintf("%s-%d-%s.json", workload, seed, hex.EncodeToString(sum[:8])))
	cur, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if prev, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(prev, cur) {
			return fmt.Errorf("nondeterministic exact counts for seed %d: this run %s, an earlier run %s", seed, cur, prev)
		}
		return nil
	}
	if err := os.MkdirAll(repeatDir, 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, cur, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// memUse is the Go runtime's memory at the end of a measured window.
type memUse struct {
	peak uint64 // obtained from the OS over the whole run
	live uint64 // heap objects still reachable after a forced collection
}

// readMem reads the high-water mark, then collects and reads the live heap.
// The high-water mark depends on when the collector happened to run, so only
// the live heap is steady enough to bound.
func readMem() memUse {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	u := memUse{peak: m.Sys}
	goruntime.GC()
	goruntime.ReadMemStats(&m)
	u.live = m.HeapAlloc
	return u
}

func (u memUse) report(rep *report) {
	rep.set("mem_peak_mb", "MB", float64(u.peak)/(1<<20), 1)
	rep.set("mem_live_mb", "MB", float64(u.live)/(1<<20), 1)
}
