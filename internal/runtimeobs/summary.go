package runtimeobs

// The machine-readable runtime_summary.json schema: per engine run the
// host time of each phase, per sweep pool its occupancy and queue latency.
// All numbers are host wall-clock and therefore *not* deterministic — the
// summary describes the run's cost, never its result.

// Summary is the top-level runtime_summary.json document.
type Summary struct {
	SchemaVersion int           `json:"schema_version"`
	WallSeconds   float64       `json:"wall_seconds"` // collector start to last span end
	Procs         []ProcSummary `json:"procs"`
}

// ProcSummary describes one span group (engine run or sweep pool).
type ProcSummary struct {
	Name        string         `json:"name"`
	Kind        string         `json:"kind"` // "engine" | "sweep" | ""
	WallSeconds float64        `json:"wall_seconds"`
	Engine      *EngineSummary `json:"engine,omitempty"`
	Sweep       *SweepSummary  `json:"sweep,omitempty"`
}

// EngineSummary aggregates one engine run's phase spans.
type EngineSummary struct {
	InitSeconds     float64 `json:"init_seconds"`
	SimulateSeconds float64 `json:"simulate_seconds"`
	FinalizeSeconds float64 `json:"finalize_seconds"`
}

// SweepSummary aggregates one sweep pool's spans.
type SweepSummary struct {
	Workers     int `json:"workers"`
	Experiments int `json:"experiments"`
	// Occupancy is experiment-busy time over workers x pool wall time.
	Occupancy float64 `json:"occupancy"`
	// Queue latency is how long after pool start each experiment was
	// dequeued — the tail measures how serialized the grid was.
	QueueLatencyMeanSeconds float64 `json:"queue_latency_mean_seconds"`
	QueueLatencyMaxSeconds  float64 `json:"queue_latency_max_seconds"`
}

func seconds(d Stamp) float64 { return float64(d) / 1e9 }

// Summarize reduces the collector's spans to the summary document.
func Summarize(c *Collector) Summary {
	var out Summary
	out.SchemaVersion = 2
	for _, p := range sortedProcs(c) {
		ps := summarizeProc(p)
		if ps.WallSeconds > out.WallSeconds {
			out.WallSeconds = ps.WallSeconds
		}
		out.Procs = append(out.Procs, ps)
	}
	return out
}

func summarizeProc(p *Proc) ProcSummary {
	ps := ProcSummary{Name: p.name, Kind: p.metaVal("kind")}

	// Wall time: the run span when present, else the latest span end.
	var wall Stamp
	var lastEnd Stamp
	for _, l := range p.lanes {
		for _, s := range l.spans {
			if s.End > lastEnd {
				lastEnd = s.End
			}
			if s.Name == SpanRun && s.End-s.Start > wall {
				wall = s.End - s.Start
			}
		}
	}
	if wall == 0 {
		wall = lastEnd
	}
	ps.WallSeconds = seconds(wall)

	switch ps.Kind {
	case "engine":
		ps.Engine = summarizeEngine(p)
	case "sweep":
		ps.Sweep = summarizeSweep(p, wall)
	}
	return ps
}

func summarizeEngine(p *Proc) *EngineSummary {
	es := &EngineSummary{}
	for _, l := range p.lanes {
		for _, s := range l.spans {
			d := seconds(s.End - s.Start)
			switch s.Name {
			case SpanInit:
				es.InitSeconds += d
			case SpanSimulate:
				es.SimulateSeconds += d
			case SpanFinalize:
				es.FinalizeSeconds += d
			}
		}
	}
	return es
}

func summarizeSweep(p *Proc, wall Stamp) *SweepSummary {
	ss := &SweepSummary{Workers: int(p.metaInt("workers"))}
	var runStart Stamp
	for _, l := range p.lanes {
		for _, s := range l.spans {
			if s.Name == SpanRun {
				runStart = s.Start
			}
		}
	}
	var busy Stamp
	var latencySum float64
	for _, l := range p.lanes {
		for _, s := range l.spans {
			if s.Name != SpanExperiment {
				continue
			}
			ss.Experiments++
			busy += s.End - s.Start
			lat := seconds(s.Start - runStart)
			latencySum += lat
			if lat > ss.QueueLatencyMaxSeconds {
				ss.QueueLatencyMaxSeconds = lat
			}
		}
	}
	if ss.Workers > 0 && wall > 0 {
		ss.Occupancy = seconds(busy) / (float64(ss.Workers) * seconds(wall))
	}
	if ss.Experiments > 0 {
		ss.QueueLatencyMeanSeconds = latencySum / float64(ss.Experiments)
	}
	return ss
}
