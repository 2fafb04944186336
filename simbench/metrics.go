package main

// windows is how many equal slices of the measured phase each rate and
// percentile is taken over; the metric is the median of the slices, so
// a stall in one slice of the run does not move it.
const windows = 5

// windowed returns f of each window's samples (µs, by class, of the ops
// sent in the window) and the window's length in seconds.
func (e *e2eRun) windowed(f func(lat [numClasses][]float64, secs float64) float64) []float64 {
	var win [windows][numClasses][]float64
	width := e.span / windows
	for c, ss := range e.lat {
		for _, s := range ss {
			k := min(int(s.at/width), windows-1)
			win[k][c] = append(win[k][c], s.us)
		}
	}
	out := make([]float64, windows)
	for k := range win {
		out[k] = f(win[k], width.Seconds())
	}
	return out
}

// pct is the median over windows of a class's percentile.
func (e *e2eRun) pct(class int, p float64) float64 {
	return median(e.windowed(func(lat [numClasses][]float64, _ float64) float64 { return percentile(lat[class], p) }))
}

// rate is the median over windows of the classes' completed ops per
// second.
func (e *e2eRun) rate(classes ...int) float64 {
	return median(e.windowed(func(lat [numClasses][]float64, secs float64) float64 {
		n := 0
		for _, c := range classes {
			n += len(lat[c])
		}
		return float64(n) / secs
	}))
}

// endToEndMetrics are what a client of the server sees, measured with
// tracing off.
func endToEndMetrics(e *e2eRun, boots []float64) map[string]metric {
	return map[string]metric{
		"setup_s":           {median(boots), "s"},
		"rss_peak_mb":       {e.rssMiB, "MiB"},
		"updates_per_s":     {e.rate(classWrite), "1/s"},
		"write_ack_p50_us":  {e.pct(classWrite, 50), "us"},
		"topkfor_p50_us":    {e.pct(classTopKFor, 50), "us"},
		"similarity_p50_us": {e.pct(classSimilarity, 50), "us"},
		"reads_per_s":       {e.rate(classTopKFor, classSimilarity), "1/s"},
	}
}

// tails are the p99 latencies, kept in the run record only: on two
// shared cores they moved by up to 2x between runs of one build, more
// than any bound a regression check could use.
func tails(e *e2eRun) map[string]float64 {
	return map[string]float64{
		"write_ack_p99_us":  e.pct(classWrite, 99),
		"topkfor_p99_us":    e.pct(classTopKFor, 99),
		"similarity_p99_us": e.pct(classSimilarity, 99),
	}
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics combine the replay's spans with the e2e run: self times
// are a layer's span minus the same op's span one layer down, and the †
// counters are /stats deltas over the measured phase.
func layerMetrics(w workload, e *e2eRun, r *replay) map[string]metric {
	srv := r.durations(lServer)
	ce := r.durations(lConcurrent)
	eng := r.durations(lEngine)
	core := r.durations(lCore)
	mc := r.durations(lMonteCarlo)
	wal := r.durations(lWAL)
	kernel := core
	if w.backend == "approx" {
		kernel = mc
	}

	// Per-op samples, by op class.
	var getSelf, postSelf, publish, engSelf []float64
	var srvOp, ceOp, mcOp [numClasses][]float64
	var coreUs, walUs []float64
	for i, o := range r.ops {
		cl := classOf(o)
		srvOp[cl] = append(srvOp[cl], srv[i])
		ceOp[cl] = append(ceOp[cl], ce[i])
		mcOp[cl] = append(mcOp[cl], mc[i])
		if !o.write() {
			getSelf = append(getSelf, srv[i]-ce[i])
			continue
		}
		postSelf = append(postSelf, srv[i]-ce[i])
		pub := ce[i] - eng[i]
		if w.wal {
			pub -= wal[i]
		}
		publish = append(publish, pub)
		engSelf = append(engSelf, eng[i]-kernel[i])
		coreUs = append(coreUs, core[i])
		walUs = append(walUs, wal[i])
	}

	netSim := e.pct(classSimilarity, 50) - median(srvOp[classSimilarity])
	netTopK := e.pct(classTopKFor, 50) - median(srvOp[classTopKFor])
	before, after := e.before, e.after
	applied := float64(after.UpdatesApplied - before.UpdatesApplied)
	hits := float64(after.CacheRowHits - before.CacheRowHits)
	misses := float64(after.CacheRowMisses - before.CacheRowMisses)
	rowBytes := float64(r.storeBytes) / float64(w.n)
	dirty := r.dirty
	if w.backend == "approx" {
		dirty = r.mcDirty
	}

	return map[string]metric{
		"server.get_self_p50_us":           {median(getSelf), "us"},
		"server.post_self_p50_us":          {median(postSelf), "us"},
		"server.net_similarity_p50_us":     {netSim, "us"},
		"server.net_topkfor_p50_us":        {netTopK, "us"},
		"server.queue_wait_p50_us":         {e.pct(classWrite, 50) - netSim - median(srvOp[classWrite]), "us"},
		"server.coalesce_ratio":            {ratio(applied, float64(after.Batches-before.Batches)), "ratio"},
		"server.failed_batches":            {float64(after.FailedBatches - before.FailedBatches), "count"},
		"simrank.publish_p50_us":           {median(publish), "us"},
		"simrank.view_topkfor_p50_us":      {median(ceOp[classTopKFor]), "us"},
		"simrank.view_similarity_p50_us":   {median(ceOp[classSimilarity]), "us"},
		"simrank.engine_self_p50_us":       {median(engSelf), "us"},
		"core.incsr_p50_us":                {percentile(coreUs, 50), "us"},
		"core.incsr_p99_us":                {percentile(coreUs, 99), "us"},
		"core.affected_pairs_mean":         {mean(r.aff), "pairs"},
		"core.dirty_rows_mean":             {mean(r.dirty), "rows"},
		"core.frontier_area_mean":          {mean(r.frontier), "pairs"},
		"core.ns_per_cost_unit":            {median(r.costNS), "ns/unit"},
		"batch.matrixform_s":               {r.matrixForm.Seconds(), "s"},
		"graph.parse_s":                    {r.parse.Seconds(), "s"},
		"simstore.store_bytes":             {float64(r.storeBytes), "B"},
		"simstore.resync_bytes_per_write":  {mean(dirty) * rowBytes, "B"},
		"cache.row_hit_ratio":              {ratio(hits, hits+misses), "ratio"},
		"cache.invalidated_rows_per_write": {ratio(float64(after.CacheInvalidatedRows-before.CacheInvalidatedRows), applied), "rows"},
		"cache.evictions_per_s":            {float64(after.CacheEvictions-before.CacheEvictions) / e.elapsed.Seconds(), "1/s"},
		"wal.append_p50_us":                {percentile(walUs, 50), "us"},
		"wal.append_p99_us":                {percentile(walUs, 99), "us"},
		"montecarlo.repair_p50_us":         {median(mcOp[classWrite]), "us"},
		"montecarlo.resample_fraction":     {r.mc.ResampleFraction(), "ratio"},
		"montecarlo.topk_p50_us":           {median(mcOp[classTopKFor]), "us"},
		"montecarlo.pair_p50_us":           {median(mcOp[classSimilarity]), "us"},
		"trace.span_overhead_us":           {r.overheadUs, "us"},
	}
}
