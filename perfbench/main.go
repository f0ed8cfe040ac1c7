// Command perfbench is the repository's end-to-end benchmark. It drives one
// workload through the production entry points in-process (the neo-serve
// handler for /optimize and /feedback, System.Optimize and Engine.Execute
// for running the served plan) from closed-loop client goroutines, checks
// every output, and prints the workload's metrics by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// benchmark also replays the workload with the same seed on a fresh system
// while recording a span around every call it makes into a layer, and
// reports the per-layer metrics. See README.md for the workloads, the
// metrics and how each layer metric relates to the end-to-end ones.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload search-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"neo/internal/executor"
	"neo/pkg/neo"
)

type options struct {
	seed    int64
	seconds int
	trace   bool
	work    string
	commit  string
}

func main() { os.Exit(benchMain(os.Args[1:])) }

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: search-cold, learn-loop or exec-evict")
	seed := fs.Int64("seed", 1, "workload seed: generates the queries and the clients' draws")
	seconds := fs.Int("seconds", 10, "length of a timed pass in seconds")
	trace := fs.Int("trace", 0, "1: also replay the workload traced and report per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench", "work"), "directory for heap files and span dumps")
	commit := fs.String("commit", "unknown", "commit under test, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload <name> -seconds >= 1 -trace 0|1:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, commit: *commit}
	out, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// outcome is one run's result.
type outcome struct {
	w         workloadDef
	o         options
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed checks, for the report
	notes     []string // how a metric was obtained, for the report
}

func (out *outcome) fail(n int, format string, args ...any) {
	out.failed += n
	out.problems = append(out.problems, fmt.Sprintf(format, args...))
}

func measure(w workloadDef, o options) (*outcome, error) {
	out := &outcome{w: w, o: o, metrics: map[string]float64{}}
	work, err := workDir(o.work, w.name)
	if err != nil {
		return nil, err
	}

	// Set up several times: setup_s is the median, the last system serves.
	var in *instance
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	var setupS []float64
	for i := 0; i < w.setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			in = nil
		}
		runtime.GC()
		next, d, err := setup(w, work)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		in = next
		setupS = append(setupS, d.Seconds())
	}
	sort.Float64s(setupS)
	out.metrics["setup_s"] = quantile(setupS, 0.5)
	out.notes = append(out.notes, fmt.Sprintf("setup_s: median of %d set-ups %v", len(setupS), setupS))

	// The benchmark's own reference computations, outside set-up and the
	// timed pass: inputs and, where plans are executed, true cardinalities.
	inputs, err := generateInputs(in.sys.DB, w.distinct, o.seed)
	if err != nil {
		return nil, err
	}
	var trueCard []float64
	if w.execute {
		if trueCard, err = trueCardinalities(in.sys, inputs); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	up := &pass{w: w, in: in, inputs: inputs, trueCard: trueCard, seed: o.seed}
	u, err := up.run(time.Duration(o.seconds) * time.Second)
	if err != nil {
		return nil, err
	}
	um := mergeClients(u)
	out.attempted += um.ops
	if um.failed > 0 {
		out.fail(um.failed, "%d of %d queries failed, e.g. %v", um.failed, um.ops, um.errs)
	}
	var planCost float64
	if w.pick == pickFresh {
		if planCost, err = out.checkServed(in.sys, inputs, u.served, w.exactOps); err != nil {
			return nil, err
		}
	}
	boot := in.bootstrapTrain
	err = in.close()
	in = nil
	if err != nil {
		return nil, err
	}
	out.endToEnd(um, u)

	if o.trace {
		if err := out.traced(w, work, inputs, trueCard, layerInputs{w: w, u: u, um: um, planCost: planCost, boot: boot}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// trueCardinalities counts every input's result exactly: the in-memory
// executor, a separate implementation from the disk executor under test,
// runs the expert's plan with its sampling cap lifted. (System.TrueCardinality
// keeps the cap, so beyond executor.DefaultMaxRows intermediate rows it only
// estimates; the expert's plans keep intermediates small, so exact counting
// stays cheap.)
func trueCardinalities(sys *neo.System, inputs []input) ([]float64, error) {
	ex := executor.New(sys.DB)
	ex.MaxRows = 1 << 40 // never reached, and the executor's 4x slack cannot overflow
	card := make([]float64, len(inputs))
	for i, in := range inputs {
		q, err := decodeQuery(in.body, sys.Catalog)
		if err != nil {
			return nil, err
		}
		p, err := sys.ExpertPlan(q)
		if err != nil {
			return nil, err
		}
		res, err := ex.Execute(p)
		if err != nil {
			return nil, err
		}
		card[i] = res.OutputRows
	}
	return card, nil
}

// checkServed verifies, after the pass, that every plan /optimize replied
// with is System.Optimize's plan for the same query, and returns the plan
// cost ratio of the first exactOps queries: total noise-free simulated
// latency of the served plans over that of the expert's plans.
func (out *outcome) checkServed(sys *neo.System, inputs []input, served []servedPlan, exactOps int) (float64, error) {
	var mismatched int
	var neoMS, expertMS float64
	for i, sp := range served {
		if !sp.ok {
			continue
		}
		q, err := decodeQuery(inputs[i].body, sys.Catalog)
		if err != nil {
			return 0, err
		}
		p, _, err := sys.Optimize(q)
		if err != nil {
			return 0, err
		}
		if p.String() != sp.plan {
			mismatched++
			continue
		}
		if i >= exactOps {
			continue
		}
		lat, _, err := sys.Engine.Simulate(p)
		if err != nil {
			return 0, err
		}
		ep, err := sys.ExpertPlan(q)
		if err != nil {
			return 0, err
		}
		elat, _, err := sys.Engine.Simulate(ep)
		if err != nil {
			return 0, err
		}
		neoMS += lat
		expertMS += elat
	}
	if mismatched > 0 {
		out.fail(mismatched, "%d /optimize replies named another plan than System.Optimize", mismatched)
	}
	return ratio(neoMS, expertMS), nil
}

func (out *outcome) endToEnd(um merged, u runResult) {
	opt, q := summarize(um.optMS), summarize(um.queryMS)
	out.metrics["optimize_p50_ms"] = opt.p50
	out.metrics["optimize_tail_ms"] = opt.tail
	out.metrics["query_p50_ms"] = q.p50
	out.metrics["query_tail_ms"] = q.tail
	out.metrics["queries_per_s"] = float64(q.n) / u.elapsed.Seconds()
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.notes = append(out.notes,
		fmt.Sprintf("optimize_tail_ms: p%.2f of %d samples", opt.tailPct, opt.n),
		fmt.Sprintf("query_tail_ms: p%.2f of %d samples", q.tailPct, q.n),
		fmt.Sprintf("queries_per_s: %d queries in %.3f s from %d clients", q.n, u.elapsed.Seconds(), out.w.clients))
	if !opt.tailOK || !q.tailOK {
		out.notes = append(out.notes, fmt.Sprintf("tail: fewer than %d samples, reporting the maximum", tailBeyond+1))
	}
}

// traced replays the workload with the same seed on a fresh system with
// spans on, checks the trace and, on search-cold, that it chose the timed
// pass's plans, and computes the per-layer metrics.
func (out *outcome) traced(w workloadDef, work string, inputs []input, trueCard []float64, li layerInputs) error {
	tin, _, err := setup(w, work)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	tp := &pass{w: w, in: tin, inputs: inputs, trueCard: trueCard, seed: out.o.seed, traced: true}
	t, err := tp.run(time.Duration(out.o.seconds) * time.Second)
	if cerr := tin.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	tm := mergeClients(t)
	out.attempted += tm.ops
	if tm.failed > 0 {
		out.fail(tm.failed, "%d of %d traced queries failed, e.g. %v", tm.failed, tm.ops, tm.errs)
	}
	if w.pick == pickFresh {
		var differ, compared int
		for i, sp := range t.served {
			if sp.ok && li.u.served[i].ok {
				compared++
				if sp.plan != li.u.served[i].plan || sp.expansions != li.u.served[i].expansions {
					differ++
				}
			}
		}
		out.notes = append(out.notes, fmt.Sprintf("traced replay: %d queries also served by the timed pass, %d with another plan", compared, differ))
		if differ > 0 {
			out.fail(differ, "the traced replay chose another plan than the timed pass for %d queries", differ)
		}
	}

	var hits []float64
	for _, c := range t.clients {
		off := len(li.spans)
		for _, s := range c.rec.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			li.spans = append(li.spans, s)
		}
		for _, h := range c.hits {
			s := c.rec.spans[h]
			hits = append(hits, float64(s.end-s.start)/1e6)
		}
	}
	li.self = selfTimes(li.spans)
	if bad := checkSelfSums(li.spans, li.self); bad > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d traced requests' self times do not add up to their wall time", bad))
	}
	li.hits, li.traced, li.tracedRS = hits, tm, t
	for k, v := range layerMetrics(li) {
		out.metrics[k] = v
	}
	out.notes = append(out.notes, breakdown(aggregate(li.spans, li.self))...)
	path := filepath.Join(work, "spans.tsv")
	if err := writeSpans(path, li.spans); err != nil {
		return err
	}
	out.notes = append(out.notes, fmt.Sprintf("spans: %d written to %s", len(li.spans), path))
	return nil
}

// breakdown lists every span name's mean self time per traced request and
// its share of the mean request wall time; the shares add up to 100%.
func breakdown(agg layerTotals) []string {
	var names []string
	var total float64
	for n := range agg.selfNS {
		names = append(names, n)
		total += agg.perRequestMS(n)
	}
	sort.Slice(names, func(i, j int) bool { return agg.selfNS[names[i]] > agg.selfNS[names[j]] })
	lines := []string{fmt.Sprintf("trace: %d requests, mean wall %.4f ms; self time per request by span:", agg.reqs, total)}
	for _, n := range names {
		ms := agg.perRequestMS(n)
		lines = append(lines, fmt.Sprintf("  %-24s %10.4f ms %6.2f%%  (%d calls)", n, ms, 100*ratio(ms, total), agg.calls[n]))
	}
	return lines
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel reads the processor name the kernel reports, for provenance.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (out *outcome) print(wr io.Writer) error {
	defs := endToEnd
	if out.o.trace {
		defs = perLayer
	}
	prov, err := json.Marshal(map[string]any{
		"workload": out.w.name, "seed": out.o.seed, "seconds": out.o.seconds, "trace": out.o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(),
		"go": runtime.Version(), "commit": out.o.commit,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(wr, "provenance %s\n", prov)
	for _, n := range out.notes {
		fmt.Fprintln(wr, n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(wr, "CHECK FAILED:", p)
	}
	fmt.Fprintf(wr, "error_rate %.6f (%d failed of %d attempted)\n", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := out.metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(wr, "%-30s %14.6f %s\n", d.name, v, d.unit)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: out.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(wr, "%s\n", line)
	return err
}
