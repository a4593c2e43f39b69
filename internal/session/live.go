package session

// live.go drives a session over the real networked control and data
// plane: a membership server plus one rendezvous point per site on a
// transport fabric — loopback TCP, or a virtual network whose links
// carry the modelled WAN latency — with the same churn traces the
// event-driven simulator replays; RunCluster is its one public entry.
// Events are applied mid-session over the wire (MsgResubscribe →
// MsgRoutesUpdate deltas), frames keep flowing while routing tables
// hot-swap, and per-event disruption latency — view change to first
// delivered frame of each newly needed stream — is measured from real
// wall-clock deliveries. SimPrediction
// builds the exact forest the membership server will construct and runs
// sim.RunEvents over the same trace, so live measurements can be
// cross-checked against the simulator's figure (see LiveSimToleranceMs).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/tele3d/tele3d/internal/chaos"
	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// LiveSimToleranceMs is the documented tolerance between the mean
// disruption latency measured on the live TCP plane and the figure
// sim.RunEvents predicts for the same trace. The live plane adds the
// control round-trip (loopback, single-digit ms), up to one frame
// interval of capture-schedule skew, and OS scheduling noise; the
// simulator adds none of these. On TCP the live figure carries real
// loopback latency only — no modelled path latency, which only a virtual
// fabric applies — while the simulator's includes each path's cost, so
// the live mean may also sit below the prediction by up to a path's
// latency. The integration test asserts the two means agree within this
// bound.
const LiveSimToleranceMs = 300

// LiveConfig parameterizes a live run.
type LiveConfig struct {
	// Profile is the per-camera encoding profile (also the frame cadence).
	Profile stream.Profile
	// DurationMs is the session length: frames are published from t=0 to
	// DurationMs, mirroring the simulator's schedule.
	DurationMs float64
	// Algorithm constructs the forest at the membership server; nil
	// means overlay.RJ{}.
	Algorithm overlay.Algorithm
	// Seed drives the membership server's randomized construction.
	Seed int64
	// DrainMs is how long after the last published frame the run keeps
	// listening for in-flight deliveries; 0 means 400.
	DrainMs float64
	// Shards is the number of membership servers the control plane is
	// partitioned into (transport.TenantStreamShard ownership); 0 or 1 boots
	// the legacy single server.
	Shards int
	// FlushIntervalMs batches each membership server's route
	// distribution (one coalesced delta per site per interval); 0 means
	// inline per-event distribution.
	FlushIntervalMs float64
	// Tenant namespaces the session on a shared fabric: membership
	// servers and RPs listen on tenant-scoped host names and shard
	// ownership keys by (tenant, site). Tenant 0 (the default) keeps
	// every legacy name and mapping — a single-tenant run is
	// bit-identical to the pre-tenancy plane.
	Tenant int
	// SLO is the tenant's admission class; consulted only when
	// Admission is set.
	SLO workload.SLOClass
	// Admission, when non-nil, is the shared cross-tenant admission
	// controller every RP admits its subscriptions through (see
	// rp.Admission). nil disables admission.
	Admission *rp.Admission
	// Uplinks[i] names the shared uplink site i's subscriptions are
	// charged against (typically its PoP); consulted only when
	// Admission is set. nil charges every site to one unnamed uplink.
	Uplinks []string
	// Chaos, when non-empty, is the resolved fault schedule injected on
	// the session clock (see internal/chaos) — the run's only source of
	// faults: RP crashes and rejoins, membership restarts (a successor
	// re-listens at the shard's address), fabric storms, loss bursts,
	// partitions and per-site link degradation. The schedule must be resolved (no
	// symbolic targets), and fabric events require a virtual fabric.
	Chaos chaos.Schedule
}

// LiveEventOutcome reports what one control event did over the wire and
// what the resubscribing site then experienced.
type LiveEventOutcome struct {
	// Index is the event's position in the (time-sorted) trace; AtMs its
	// nominal session-relative time; Node the resubscribing site.
	Index int
	AtMs  float64
	Node  int
	// Epoch is the routing-table version the membership server assigned
	// to the change.
	Epoch uint64
	// GainedAccepted / GainedRejected / Skipped partition the event's
	// gained streams the same way sim.RunEvents does.
	GainedAccepted int
	GainedRejected int
	Skipped        int
	// DeliveredGained counts accepted gains whose first frame arrived
	// before session end; Undelivered the remainder.
	DeliveredGained int
	Undelivered     int
	// MeanDisruptionMs and MaxDisruptionMs summarize, over the delivered
	// gains, the wall-clock time from the resubscription request to the
	// first delivered frame of each gained stream.
	MeanDisruptionMs float64
	MaxDisruptionMs  float64
}

// LiveResult is a completed live churn run.
type LiveResult struct {
	// Events holds one outcome per control event, in time-sorted order.
	Events []LiveEventOutcome
	// DeliveredGained / UndeliveredGained aggregate the per-event counts.
	DeliveredGained   int
	UndeliveredGained int
	// MeanDisruptionMs / MaxDisruptionMs aggregate disruption latency
	// over every delivered gained stream of every event.
	MeanDisruptionMs float64
	MaxDisruptionMs  float64
	// TotalFrames counts frames delivered to displays across all sites.
	TotalFrames int
	// TotalStale counts frames that arrived for streams their site no
	// longer accepted; TotalDuplicates second copies discarded across
	// parent swaps; TotalDropped frames lost at full delivery queues.
	// Fabric faults (partitions, slow links) move these numbers.
	TotalStale      int
	TotalDuplicates int
	TotalDropped    int
	// FinalEpoch is the routing-table version at session end.
	FinalEpoch uint64
	// Failovers counts the distinct membership shards the cluster failed
	// over mid-session (0 on a healthy run); FailoverRecoveryMs is the
	// worst per-node recovery span observed — control-connection loss to
	// resynchronized shard table.
	Failovers          int
	FailoverRecoveryMs float64
	// AdmissionRejections counts subscription attempts the shared
	// admission controller denied across the session's RPs (0 without
	// admission).
	AdmissionRejections int
	// ChaosEvents counts the chaos faults injected (0 on a chaos-free
	// run); ChaosRecoveryMs is the worst per-fault recovery — the
	// blocking span of rejoins and membership takeovers, the window
	// length of storms and partitions. Chaos holds every fault's
	// outcome in schedule order.
	ChaosEvents     int
	ChaosRecoveryMs float64
	Chaos           []chaos.Outcome
	// Retries totals the transport-level dial retries the cluster's
	// nodes performed (registration, failover sweeps, peer reconnects)
	// — 0 on a healthy run with an undisturbed fabric.
	Retries int64
	// Phases sums the per-phase maintenance timings — forest
	// construction, batched churn application, route rebuilds — across
	// every membership server the run booted (shard primaries and the
	// successors of membership restarts). Wall-clock observability, not
	// part of any determinism contract.
	Phases membership.PhaseStats
}

// DeliveredFraction is the fraction of accepted gained streams whose
// first frame arrived before session end. A run with no gains delivered
// everything it was asked to — nothing to deliver, nothing lost — and
// reports 1.
func (r *LiveResult) DeliveredFraction() float64 {
	total := r.DeliveredGained + r.UndeliveredGained
	if total == 0 {
		return 1
	}
	return float64(r.DeliveredGained) / float64(total)
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.Algorithm == nil {
		c.Algorithm = overlay.RJ{}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DrainMs == 0 {
		c.DrainMs = 400
	}
	return c
}

// SimPrediction runs the event-driven simulator over the same trace and
// the same forest the membership server will construct for this session
// (identical workload, latency bound, algorithm and seed), producing the
// figure the live run is cross-checked against.
func (s *Session) SimPrediction(cfg LiveConfig, events []sim.Event) (*sim.EventResult, error) {
	cfg = cfg.withDefaults()
	p, err := overlay.FromWorkload(s.Workload, s.Sites.Cost, s.Problem.Bcost)
	if err != nil {
		return nil, err
	}
	f, err := cfg.Algorithm.Construct(p, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	return sim.RunEvents(sim.Config{
		Forest: f, Profile: cfg.Profile, DurationMs: cfg.DurationMs,
	}, events)
}

// runLive executes the session on fabric: a membership server and one
// RP per site are booted, frames are published on the profile's cadence,
// and the trace's events are applied mid-session through each site's
// Resubscribe — the wire path, not the simulator. Disruption latency is
// measured per gained stream from the moment the resubscription request
// is sent to the first frame delivered at the site's displays. The
// trace may be unsorted; ties keep trace order.
func (s *Session) runLive(ctx context.Context, cfg LiveConfig, fabric transport.Fabric, events []sim.Event) (*LiveResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.DurationMs <= 0 {
		return nil, fmt.Errorf("session: live duration %v <= 0", cfg.DurationMs)
	}
	n := s.Workload.N()
	for i, e := range events {
		if e.Node < 0 || e.Node >= n {
			return nil, fmt.Errorf("session: event %d node %d out of range", i, e.Node)
		}
		if math.IsNaN(e.AtMs) || e.AtMs < 0 || e.AtMs >= cfg.DurationMs {
			return nil, fmt.Errorf("session: event %d at %vms outside [0, %v)", i, e.AtMs, cfg.DurationMs)
		}
	}

	trace := make([]sim.Event, len(events))
	copy(trace, events)
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].AtMs < trace[j].AtMs })

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	vnet, _ := fabric.(*transport.VirtualNetwork)
	chaosActive := len(cfg.Chaos.Events) > 0
	if chaosActive {
		if err := validateChaos(cfg.Chaos, n, shards, vnet != nil); err != nil {
			return nil, err
		}
	}

	// One retry counter is shared by every node the run ever boots
	// (including chaos rejoins), so the result's retry total covers all
	// dial paths.
	retry := &transport.RetryStats{}
	ns := newNodeSet(n)
	var srvMu sync.Mutex // guards servers and drains: restarts and rejoins come mid-run
	var servers []*memberServer
	var drains sync.WaitGroup
	defer func() {
		cancel()
		for _, node := range ns.all() {
			node.Close()
		}
		// boot and mkNode refuse once ctx is cancelled, so both are final.
		srvMu.Lock()
		booted := servers
		srvMu.Unlock()
		for _, sv := range booted {
			sv.srv.Wait()
		}
		drains.Wait()
	}()

	// Every shard server receives the full registration workload and
	// constructs the identical forest (same seed, same algorithm), but
	// owns — applies diffs to, pushes deltas for — only its slice of the
	// stream space, so the union of shard directives equals the
	// single-server table. boot starts shard k's server on the shard's
	// host, listening at listen: "" for a fresh address, or a restarted
	// server's predecessor's address, which every RP already holds. Each
	// server runs under its own context: cancelling it is the one way a
	// server crashes. Serve returns once every RP has registered with the
	// server — for a primary the assembled session, for a restart's
	// successor the takeover RestartMembership blocks on.
	boot := func(k int, listen string) (*memberServer, error) {
		srvMu.Lock()
		defer srvMu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err // the run is tearing down
		}
		srv, err := membership.New(membership.Config{
			N: n, Cost: s.Sites.Cost, Bcost: s.Problem.Bcost,
			Algorithm: cfg.Algorithm, Seed: cfg.Seed,
			ListenAddr:      listen,
			Network:         fabric.Host(transport.TenantShardServerHost(cfg.Tenant, k)),
			Shards:          shards,
			Shard:           k,
			FlushIntervalMs: cfg.FlushIntervalMs,
			Tenant:          cfg.Tenant,
		})
		if err != nil {
			return nil, err
		}
		srvCtx, srvCancel := context.WithCancel(ctx)
		sv := &memberServer{srv: srv, cancel: srvCancel, done: make(chan error, 1)}
		servers = append(servers, sv)
		go func() { sv.done <- srv.Serve(srvCtx) }()
		return sv, nil
	}
	primaries := make([]*memberServer, shards)
	directory := make([]string, shards)
	for k := range primaries {
		var err error
		if primaries[k], err = boot(k, ""); err != nil {
			return nil, err
		}
		directory[k] = primaries[k].srv.Addr()
	}

	// mkNode is the single constructor both the initial fleet and
	// crash-rejoin replacements go through; it discards each frame the
	// node delivers, since disruption is read from first-frame records.
	mkNode := func(i int, subs []stream.ID, resubFloor, seqFloor uint64) (*rp.Node, error) {
		var uplink string
		if i < len(cfg.Uplinks) {
			uplink = cfg.Uplinks[i]
		}
		node, err := rp.New(rp.Config{
			Site: i, Directory: directory,
			In: s.Workload.Sites[i].In, Out: s.Workload.Sites[i].Out,
			Cameras: s.Workload.Sites[i].NumStreams,
			Profile: cfg.Profile, Seed: cfg.Seed*1000 + int64(i),
			Subscriptions: subs,
			Network:       fabric.Host(transport.TenantSiteHost(cfg.Tenant, i)),
			Tenant:        cfg.Tenant,
			SLO:           cfg.SLO,
			Uplink:        uplink,
			Admission:     cfg.Admission,
			RetryStats:    retry,
			ResubFloor:    resubFloor,
			SeqFloor:      seqFloor,
		})
		if err != nil {
			return nil, err
		}
		srvMu.Lock()
		defer srvMu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err // the run is tearing down
		}
		drains.Add(1)
		go func() {
			defer drains.Done()
			for {
				select {
				case <-node.Deliveries():
				case <-ctx.Done():
					return
				}
			}
		}()
		return node, nil
	}
	startErrs := make(chan error, n)
	for i := 0; i < n; i++ {
		node, err := mkNode(i, s.Workload.Subs[i], 0, 0)
		if err != nil {
			return nil, err
		}
		ns.nodes[i] = node
		go func() { startErrs <- node.Start(ctx) }()
	}
	// Collect every Start result before acting on a failure: returning
	// early would let the deferred Close race with handshakes still in
	// flight on sibling nodes.
	var startErr error
	for i := 0; i < n; i++ {
		if err := <-startErrs; err != nil && startErr == nil {
			startErr = err
			cancel() // unblock the remaining handshakes
		}
	}
	if startErr != nil {
		return nil, startErr
	}
	for k, sv := range primaries {
		if err := <-sv.done; err != nil {
			return nil, fmt.Errorf("session: membership shard %d: %w", k, err)
		}
	}

	// Publish on the profile's cadence from every site, mirroring the
	// simulator's frame schedule (sources capture regardless of demand).
	interval := time.Duration(cfg.Profile.FrameIntervalMs() * float64(time.Millisecond))
	t0 := time.Now()
	var chaosDone chan []chaos.Outcome
	if chaosActive {
		ctl := &chaosCluster{
			ns:     ns,
			mkNode: mkNode,
			boot:   boot,
			cur:    primaries,
			vnet:   vnet,
			tenant: cfg.Tenant,
		}
		if vnet != nil {
			ctl.west, ctl.east = splitByLongitudeTenant(s, cfg.Tenant)
		}
		chaosDone = make(chan []chaos.Outcome, 1)
		go func() { chaosDone <- chaos.Run(ctx, t0, cfg.Chaos, ctl) }()
	}
	pubDone := make(chan error, 1)
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			// The read lock held across the sweep excludes crash-rejoin
			// swaps mid-tick: a site is either published whole or skipped.
			if err := ns.forEachUp(func(_ int, node *rp.Node) error {
				return node.PublishTick()
			}); err != nil {
				pubDone <- err
				return
			}
			select {
			case <-ctx.Done():
				pubDone <- nil
				return
			case <-ticker.C:
			}
			if time.Since(t0) >= time.Duration(cfg.DurationMs*float64(time.Millisecond)) {
				pubDone <- nil
				return
			}
		}
	}()

	// Apply the trace over the wire at its nominal times, failing fast if
	// the publisher dies mid-session instead of replaying events into a
	// session with no frames.
	pubFinished := false
	type applied struct {
		sentAt time.Time
		res    *rp.ResubscribeResult
	}
	outcomes := make([]applied, len(trace))
	for i, e := range trace {
		at := t0.Add(time.Duration(e.AtMs * float64(time.Millisecond)))
		for wait := time.Until(at); wait > 0; wait = time.Until(at) {
			if pubFinished {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				continue
			}
			select {
			case <-time.After(wait):
			case err := <-pubDone:
				pubFinished = true
				if err != nil {
					return nil, fmt.Errorf("session: live publish: %w", err)
				}
				// Normal completion: the schedule's last tick can precede
				// the trace's last events; keep applying them.
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		node, down := ns.get(e.Node)
		if down {
			// The site is crashed right now; the event is skipped the
			// same way a trace-drift event is (res stays nil).
			continue
		}
		sentAt := time.Now()
		res, err := node.Resubscribe(ctx, e.Gained, e.Lost)
		if err != nil {
			if ns.isDown(e.Node) {
				continue // crashed mid-request
			}
			return nil, fmt.Errorf("session: live event %d (node %d): %w", i, e.Node, err)
		}
		outcomes[i] = applied{sentAt: sentAt, res: res}
	}

	// Let the publisher finish its schedule, then drain in-flight frames.
	if !pubFinished {
		if err := <-pubDone; err != nil {
			return nil, fmt.Errorf("session: live publish: %w", err)
		}
	}
	select {
	case <-time.After(time.Duration(cfg.DrainMs * float64(time.Millisecond))):
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	// Wait out the injector before judging node health: a schedule's
	// last rejoin may still be resyncing when the drain window closes.
	var chaosOuts []chaos.Outcome
	if chaosDone != nil {
		select {
		case chaosOuts = <-chaosDone:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		for _, o := range chaosOuts {
			if o.Err != "" {
				return nil, fmt.Errorf("session: chaos %s at %.0fms: %s", o.Event.Kind, o.Event.AtMs, o.Err)
			}
		}
	}
	for i := 0; i < n; i++ {
		node, down := ns.get(i)
		if down {
			continue // crashed by schedule and (deliberately) not rejoined
		}
		if err := node.Err(); err != nil {
			return nil, fmt.Errorf("session: site %d failed mid-run: %w", i, err)
		}
	}

	// Match per-node disruption records (epoch, stream) to the events
	// whose acknowledged routing update carried that epoch. Epochs are
	// per shard, so the lookup uses the owning shard's epoch for each
	// gained stream (ResubscribeResult.Epochs).
	type gainKey struct {
		node  int
		epoch uint64
		id    stream.ID
	}
	firstFrame := make(map[gainKey]time.Time)
	for _, node := range ns.all() {
		for _, d := range node.Disruptions() {
			firstFrame[gainKey{node: node.Site(), epoch: d.Epoch, id: d.Stream}] = d.FirstFrame
		}
	}

	res := &LiveResult{Events: make([]LiveEventOutcome, len(trace))}
	var sum float64
	for i, e := range trace {
		o := &res.Events[i]
		o.Index, o.AtMs, o.Node = i, e.AtMs, e.Node
		if outcomes[i].res == nil {
			// The event landed in the site's crash window and was skipped.
			o.Skipped = len(e.Gained)
			continue
		}
		o.Epoch = outcomes[i].res.Epoch
		o.GainedAccepted = len(outcomes[i].res.Accepted)
		o.GainedRejected = len(outcomes[i].res.Rejected)
		o.Skipped = len(e.Gained) - o.GainedAccepted - o.GainedRejected
		for _, id := range outcomes[i].res.Accepted {
			epoch := o.Epoch
			if pe, ok := outcomes[i].res.Epochs[id]; ok {
				epoch = pe
			}
			ff, ok := firstFrame[gainKey{node: e.Node, epoch: epoch, id: id}]
			if !ok {
				o.Undelivered++
				continue
			}
			d := float64(ff.Sub(outcomes[i].sentAt)) / float64(time.Millisecond)
			o.DeliveredGained++
			o.MeanDisruptionMs += (d - o.MeanDisruptionMs) / float64(o.DeliveredGained)
			o.MaxDisruptionMs = math.Max(o.MaxDisruptionMs, d)
		}
		res.DeliveredGained += o.DeliveredGained
		res.UndeliveredGained += o.Undelivered
		sum += o.MeanDisruptionMs * float64(o.DeliveredGained)
		res.MaxDisruptionMs = math.Max(res.MaxDisruptionMs, o.MaxDisruptionMs)
	}
	if res.DeliveredGained > 0 {
		res.MeanDisruptionMs = sum / float64(res.DeliveredGained)
	}
	shardFailed := make(map[int]bool)
	for _, node := range ns.all() {
		for _, st := range node.Stats() {
			res.TotalFrames += st.Frames
			res.TotalStale += st.Stale
			res.TotalDuplicates += st.Duplicates
			res.TotalDropped += st.Dropped
		}
		if e := node.Epoch(); e > res.FinalEpoch {
			res.FinalEpoch = e
		}
		for _, f := range node.Failovers() {
			shardFailed[f.Shard] = true
			res.FailoverRecoveryMs = math.Max(res.FailoverRecoveryMs, f.RecoveryMs())
		}
		res.AdmissionRejections += node.AdmissionRejections()
	}
	res.Failovers = len(shardFailed)
	res.Chaos = chaosOuts
	res.ChaosEvents = len(chaosOuts)
	res.ChaosRecoveryMs = chaos.MaxRecoveryMs(chaosOuts)
	res.Retries = retry.Total()
	srvMu.Lock()
	for _, sv := range servers {
		ph := sv.srv.PhaseStats()
		res.Phases.ConstructMs += ph.ConstructMs
		res.Phases.BatchApplyMs += ph.BatchApplyMs
		res.Phases.RouteRebuildMs += ph.RouteRebuildMs
	}
	srvMu.Unlock()
	return res, nil
}
