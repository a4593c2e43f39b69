// Package record defines the result-record schema shared by the
// experiment CLIs: one Record per evaluated cell (tisweep grid sweeps)
// or per cluster run (ticluster virtual clusters), streamed to a compact
// CSV summary and full JSON-Lines. Sharing the schema keeps every
// produced dataset loadable by the same notebooks and jq pipelines
// regardless of which tool produced it.
package record

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Record is one experiment result row. Axis columns that do not apply to
// a record family are zero (or carry a documented sentinel such as the
// churn cells' "fov" capacity); Scenario is empty for grid sweeps and
// names the cluster scenario for ticluster records.
type Record struct {
	Cell              int     `json:"cell"`
	Trial             int     `json:"trial"`
	N                 int     `json:"n"`
	Streams           int     `json:"streams"`
	Bandwidth         int     `json:"bandwidth"`
	Bcost             float64 `json:"bcost"`
	Frac              float64 `json:"frac"`
	Capacity          string  `json:"capacity"`
	Popularity        string  `json:"popularity"`
	Algorithm         string  `json:"algorithm"`
	Samples           int     `json:"samples"`
	Seed              int64   `json:"seed"`
	Parallelism       int     `json:"parallelism"`
	Rejection         float64 `json:"rejection"`
	WeightedRejection float64 `json:"weighted_rejection"`
	UtilMean          float64 `json:"util_mean"`
	UtilStdDev        float64 `json:"util_stddev"`
	RelayFraction     float64 `json:"relay_fraction"`
	ChurnRate         float64 `json:"churn_rate"`
	ChurnMix          float64 `json:"churn_mix"`
	Scenario          string  `json:"scenario,omitempty"`
	ChurnEvents       float64 `json:"churn_events"`
	DisruptionMeanMs  float64 `json:"disruption_mean_ms"`
	DisruptionMaxMs   float64 `json:"disruption_max_ms"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	// Shards is the membership control-plane shard count of a cluster run
	// (0 for records from tools without a control plane); Failovers counts
	// membership shards that crashed and were recovered by the RPs
	// re-registering with the successor at the shard's address (a shard
	// restarted twice counts once), and FailoverRecoveryMs is the slowest
	// such recovery observed by any RP.
	Shards             int     `json:"shards"`
	Failovers          int     `json:"failovers"`
	FailoverRecoveryMs float64 `json:"failover_recovery_ms"`
	// ChaosSchedule is the fully resolved fault schedule a chaos run
	// injected (empty when none) — replayable byte for byte with the
	// row's seed. ChaosEvents counts the injected faults,
	// ChaosRecoveryMs is the slowest per-fault recovery, and Retries is
	// the run's total redial attempts through the shared transport
	// backoff layer (crashed peers, killed membership servers).
	ChaosSchedule   string  `json:"chaos_schedule,omitempty"`
	ChaosEvents     int     `json:"chaos_events"`
	ChaosRecoveryMs float64 `json:"chaos_recovery_ms"`
	Retries         int64   `json:"retries"`
	// Tenant and SLOClass identify the tenant a multi-tenant cluster
	// row reports on (tenant 0 with an empty class for single-tenant
	// records); Admitted counts the tenant's lifetime stream
	// admissions and Rejections its admission denials. The disruption
	// columns above are per tenant in multi-tenant records: each row
	// carries its own tenant's latency figures.
	Tenant     int    `json:"tenant"`
	SLOClass   string `json:"slo_class,omitempty"`
	Admitted   int    `json:"admitted"`
	Rejections int    `json:"rejections"`
	// The Frames* columns are a cluster run's frame ledger, rp.StreamStats
	// summed over its sites (0 for sweeps).
	FramesDelivered int `json:"frames_delivered"`
	FramesDropped   int `json:"frames_dropped"`
	FramesStale     int `json:"frames_stale"`
	FramesDuplicate int `json:"frames_duplicate"`
	// ConstructMs / BatchApplyMs / RouteRebuildMs break the run's overlay
	// maintenance cost into its phases: initial forest construction,
	// batched churn application, and routing-table rebuilds. Cluster runs
	// report the membership plane's accounting summed over every server;
	// sweep cells report the engine's per-sample totals (route rebuilds
	// are a control-plane phase, so sweeps leave that column 0).
	// HeapDeltaBytes is the live-heap growth across the run (negative
	// when a GC cycle net-shrank the heap mid-measurement).
	ConstructMs    float64 `json:"construct_ms"`
	BatchApplyMs   float64 `json:"batch_apply_ms"`
	RouteRebuildMs float64 `json:"route_rebuild_ms"`
	HeapDeltaBytes int64   `json:"heap_delta_bytes"`
	ElapsedMs      float64 `json:"elapsed_ms"`
}

// CSVHeader is the CSV column order; CSVRow emits values in the same
// order.
var CSVHeader = []string{
	"cell", "trial", "n", "streams", "bandwidth", "bcost", "frac",
	"capacity", "popularity", "algorithm", "samples", "seed", "parallelism",
	"rejection", "weighted_rejection", "util_mean", "util_stddev",
	"relay_fraction", "churn_rate", "churn_mix", "scenario", "churn_events",
	"disruption_mean_ms", "disruption_max_ms", "delivered_fraction",
	"shards", "failovers", "failover_recovery_ms",
	"chaos_schedule", "chaos_events", "chaos_recovery_ms", "retries",
	"tenant", "slo_class", "admitted", "rejections",
	"frames_delivered", "frames_dropped", "frames_stale", "frames_duplicate",
	"construct_ms", "batch_apply_ms", "route_rebuild_ms", "heap_delta_bytes",
	"elapsed_ms",
}

// CSVRow renders the record as one CSV row matching CSVHeader.
func (r Record) CSVRow() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	return []string{
		strconv.Itoa(r.Cell), strconv.Itoa(r.Trial), strconv.Itoa(r.N),
		strconv.Itoa(r.Streams), strconv.Itoa(r.Bandwidth),
		f(r.Bcost), f(r.Frac),
		r.Capacity, r.Popularity, r.Algorithm,
		strconv.Itoa(r.Samples), strconv.FormatInt(r.Seed, 10), strconv.Itoa(r.Parallelism),
		f(r.Rejection), f(r.WeightedRejection),
		f(r.UtilMean), f(r.UtilStdDev), f(r.RelayFraction),
		f(r.ChurnRate), f(r.ChurnMix), r.Scenario, f(r.ChurnEvents),
		f(r.DisruptionMeanMs), f(r.DisruptionMaxMs), f(r.DeliveredFraction),
		strconv.Itoa(r.Shards), strconv.Itoa(r.Failovers), f(r.FailoverRecoveryMs),
		r.ChaosSchedule, strconv.Itoa(r.ChaosEvents), f(r.ChaosRecoveryMs),
		strconv.FormatInt(r.Retries, 10),
		strconv.Itoa(r.Tenant), r.SLOClass, strconv.Itoa(r.Admitted), strconv.Itoa(r.Rejections),
		strconv.Itoa(r.FramesDelivered), strconv.Itoa(r.FramesDropped), strconv.Itoa(r.FramesStale), strconv.Itoa(r.FramesDuplicate),
		f(r.ConstructMs), f(r.BatchApplyMs), f(r.RouteRebuildMs),
		strconv.FormatInt(r.HeapDeltaBytes, 10),
		strconv.FormatFloat(r.ElapsedMs, 'f', 1, 64),
	}
}

// Sink streams records to an optional CSV file and an optional JSONL
// file. Each path may be empty (sink disabled) or "-" (the provided
// stdout writer). Records are flushed as written, so long runs can be
// tailed and survive interruption with usable partial output.
type Sink struct {
	csvW   *csv.Writer
	jsonW  *json.Encoder
	closes []func() error
}

// NewSink opens the requested outputs and writes the CSV header.
func NewSink(csvPath, jsonlPath string, stdout io.Writer) (*Sink, error) {
	s := &Sink{}
	csvOut, err := s.open(csvPath, stdout)
	if err != nil {
		return nil, err
	}
	if csvOut != nil {
		s.csvW = csv.NewWriter(csvOut)
		if err := s.csvW.Write(CSVHeader); err != nil {
			s.Close()
			return nil, err
		}
		s.csvW.Flush()
	}
	jsonOut, err := s.open(jsonlPath, stdout)
	if err != nil {
		s.Close()
		return nil, err
	}
	if jsonOut != nil {
		s.jsonW = json.NewEncoder(jsonOut)
	}
	return s, nil
}

// open resolves one output path: empty disables it, "-" targets stdout,
// anything else creates the file.
func (s *Sink) open(path string, stdout io.Writer) (io.Writer, error) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return stdout, nil
	default:
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.closes = append(s.closes, f.Close)
		return f, nil
	}
}

// Write streams one record to every enabled output.
func (s *Sink) Write(r Record) error {
	if s.csvW != nil {
		if err := s.csvW.Write(r.CSVRow()); err != nil {
			return err
		}
		s.csvW.Flush()
		if err := s.csvW.Error(); err != nil {
			return err
		}
	}
	if s.jsonW != nil {
		if err := s.jsonW.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the sink's files, reporting the first failure.
func (s *Sink) Close() error {
	var first error
	for _, c := range s.closes {
		if err := c(); err != nil && first == nil {
			first = fmt.Errorf("record: close sink: %w", err)
		}
	}
	s.closes = nil
	return first
}
