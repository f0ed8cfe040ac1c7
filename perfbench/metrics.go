package main

import (
	"sort"
	"time"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract and match BENCHMARK.json at the repository root.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"optimize_p50_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer breaks a workload down by layer: counter deltas from the
// untraced pass, span self times from the traced pass. A layer a workload
// bypasses reports 0.
var perLayer = []metricDef{
	// The tails are reported here, not gated end to end: on exec-evict the
	// /optimize tail is set by garbage-collection pauses, and the query tail
	// by the few heaviest fast-path plans a seed happens to draw, so both
	// swing between seeds by more than any bound a change could be held to.
	{"optimize_tail_ms", "ms", "lower"},
	{"query_tail_ms", "ms", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.hit_us", "us", "lower"},
	{"serve.feedback_us", "us", "lower"},
	{"plancache.hit_ratio", "ratio", "higher"},
	{"plancache.invalidations", "count", "lower"},
	{"route.fastpath_share", "ratio", "higher"},
	{"fastpath.plan_us", "us", "lower"},
	{"search.self_ms", "ms", "lower"},
	{"search.expansions", "count", "lower"},
	{"search.evaluations", "count", "lower"},
	{"feature.encode_ms", "ms", "lower"},
	{"feature.encode_us_per_plan", "us", "lower"},
	{"valuenet.predict_ms", "ms", "lower"},
	{"valuenet.rows_per_pass", "rows", "higher"},
	{"sched.fused_share", "ratio", "higher"},
	{"sched.avg_fused_size", "count", "higher"},
	{"sched.dedup_ratio", "ratio", "higher"},
	{"executor.exec_ms", "ms", "lower"},
	{"executor.exec_tail_ms", "ms", "lower"},
	{"executor.rows_per_result", "ratio", "lower"},
	{"executor.truncated_share", "ratio", "lower"},
	{"storage.hit_ratio", "ratio", "higher"},
	{"storage.misses_per_query", "count", "lower"},
	{"storage.evictions_per_query", "count", "lower"},
	{"storage.bytes_read_per_query", "B", "lower"},
	{"train.rounds", "count", "higher"},
	{"train.busy_s", "s", "lower"},
	{"train.round_s", "s", "lower"},
	{"train.skip_ratio", "ratio", "lower"},
	{"train.bootstrap_s", "s", "lower"},
	{"retrain_lag_s", "s", "lower"},
	{"plan_cost_ratio", "ratio", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.request_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// retrainLag returns, for each /feedback reply that triggered a retraining
// round, the time until the first later /optimize reply served from a
// higher net version. Triggers whose round had not published by the end of
// the pass are left out.
func retrainLag(events []event) []float64 {
	evs := append([]event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var lags []float64
	for i, trig := range evs {
		if !trig.trigger {
			continue
		}
		for _, e := range evs[i+1:] {
			if !e.trigger && e.version > trig.version {
				lags = append(lags, (e.at - trig.at).Seconds())
				break
			}
		}
	}
	return lags
}

// merged concatenates every client's samples and logs.
type merged struct {
	optMS, queryMS []float64
	ops, failed    int
	ownLookups     int
	errs           []string
	execs          []execRec
	events         []event
}

func mergeClients(r runResult) merged {
	var m merged
	for _, c := range r.clients {
		m.optMS = append(m.optMS, c.optMS...)
		m.queryMS = append(m.queryMS, c.queryMS...)
		m.ops += c.n
		m.failed += c.failed
		m.ownLookups += c.ownLookups
		m.errs = append(m.errs, c.errs...)
		m.execs = append(m.execs, c.execs...)
		m.events = append(m.events, c.events...)
	}
	return m
}

// layerInputs is everything per-layer metrics are computed from.
type layerInputs struct {
	w        workloadDef
	u        runResult // untraced pass
	um       merged
	spans    []span // traced pass, all clients
	self     []int64
	hits     []float64 // durations (ms) of serve.optimize spans that hit the plan cache
	traced   merged
	tracedRS runResult
	planCost float64
	boot     time.Duration
}

func layerMetrics(in layerInputs) map[string]float64 {
	m := map[string]float64{}
	u, s, e := in.u, in.u.start, in.u.end
	ops := float64(in.um.ops)
	agg := aggregate(in.spans, in.self)
	p50us := func(name string) float64 { return summarize(agg.durMS[name]).p50 * 1e3 }

	m["serve.decode_us"] = p50us("serve.decode")
	m["serve.hit_us"] = summarize(in.hits).p50 * 1e3
	m["serve.feedback_us"] = p50us("serve.feedback")

	// The /optimize handler's hit ratio: the benchmark's own lookups are
	// taken out of both counts as hits.
	hits := float64(e.cache.Hits-s.cache.Hits) - float64(in.um.ownLookups)
	m["plancache.hit_ratio"] = ratio(hits, hits+float64(e.cache.Misses-s.cache.Misses))
	m["plancache.invalidations"] = float64(e.stats.NetVersion - s.stats.NetVersion)

	fast := float64(e.route.Fastpath - s.route.Fastpath)
	m["route.fastpath_share"] = ratio(fast, fast+float64(e.route.Full-s.route.Full))
	// Route percentiles are cumulative; the system is fresh when the pass
	// starts (set-up plans nothing through the router), so they cover it.
	m["fastpath.plan_us"] = e.route.FastpathP50US

	m["search.self_ms"] = agg.perRequestMS("search.BestFirst")
	var exp, evals, searched float64
	for i, sp := range in.tracedRS.served {
		if sp.ok && i < in.w.exactOps {
			exp += float64(sp.expansions)
			evals += float64(sp.evaluations)
			searched++
		}
	}
	m["search.expansions"] = ratio(exp, searched)
	m["search.evaluations"] = ratio(evals, searched)
	m["feature.encode_ms"] = agg.perRequestMS("feature.EncodeQuery", "feature.EncodePlan")
	m["feature.encode_us_per_plan"] = ratio(float64(agg.selfNS["feature.EncodePlan"])/1e3, float64(agg.items["feature.EncodePlan"]))
	m["valuenet.predict_ms"] = agg.perRequestMS("valuenet.PredictBatch")
	m["valuenet.rows_per_pass"] = ratio(float64(agg.items["valuenet.PredictBatch"]), float64(agg.calls["valuenet.PredictBatch"]))

	batches := float64(e.fusion.Batches - s.fusion.Batches)
	m["sched.fused_share"] = ratio(float64(e.fusion.FusedBatches-s.fusion.FusedBatches), batches)
	// AvgFusedSize is cumulative; the scheduler has run nothing before the pass.
	m["sched.avg_fused_size"] = e.fusion.AvgFusedSize
	m["sched.dedup_ratio"] = ratio(float64(e.fusion.CacheHits-s.fusion.CacheHits), float64(e.fusion.Rows-s.fusion.Rows))

	m["executor.exec_ms"] = agg.perRequestMS("engine.Execute")
	execDur := summarize(agg.durMS["engine.Execute"])
	m["executor.exec_tail_ms"] = execDur.tail
	// Executor and storage counts cover the first exactOps queries of a
	// single-client workload, which repeat exactly for a seed; otherwise
	// the whole pass.
	execs, pool, queries := in.um.execs, e.pool, ops
	if u.prefixSet {
		execs, pool, queries = execs[:min(in.w.exactOps, len(execs))], u.prefix, float64(in.w.exactOps)
	}
	var inter, out, trunc float64
	for _, x := range execs {
		inter += x.intermediate
		out += x.output
		if x.truncated {
			trunc++
		}
	}
	m["executor.rows_per_result"] = ratio(inter, out)
	m["executor.truncated_share"] = ratio(trunc, float64(len(execs)))
	misses := float64(pool.Misses - s.pool.Misses)
	m["storage.hit_ratio"] = ratio(float64(pool.Hits-s.pool.Hits), float64(pool.Hits-s.pool.Hits)+misses)
	m["storage.misses_per_query"] = ratio(misses, queries)
	m["storage.evictions_per_query"] = ratio(float64(pool.Evictions-s.pool.Evictions), queries)
	m["storage.bytes_read_per_query"] = ratio(float64(pool.BytesRead-s.pool.BytesRead), queries)

	rounds := float64(e.stats.Retrains - s.stats.Retrains)
	busy := (e.train - s.train).Seconds()
	m["train.rounds"] = rounds
	m["train.busy_s"] = busy
	m["train.round_s"] = ratio(busy, rounds)
	if in.w.retrainEvery > 0 {
		every := uint64(in.w.retrainEvery)
		triggers := float64(e.stats.Feedbacks/every - s.stats.Feedbacks/every)
		var started float64
		for _, ev := range in.um.events {
			if ev.trigger {
				started++
			}
		}
		m["train.skip_ratio"] = ratio(triggers-started, triggers)
	} else {
		m["train.skip_ratio"] = 0
	}
	m["train.bootstrap_s"] = in.boot.Seconds()
	lags := retrainLag(in.um.events)
	sort.Float64s(lags)
	m["retrain_lag_s"] = quantile(lags, 0.5)
	m["plan_cost_ratio"] = in.planCost

	m["go.allocs_per_op"] = ratio(float64(e.mem.Mallocs-s.mem.Mallocs), ops)
	m["go.alloc_bytes_per_op"] = ratio(float64(e.mem.TotalAlloc-s.mem.TotalAlloc), ops)
	m["go.gc_cycles"] = float64(e.mem.NumGC - s.mem.NumGC)
	m["go.gc_pause_ms"] = float64(e.mem.PauseTotalNs-s.mem.PauseTotalNs) / 1e6

	traced := summarize(in.traced.queryMS).p50
	m["trace.request_ms"] = traced
	m["trace.overhead_ms"] = traced - summarize(in.um.queryMS).p50
	return m
}
