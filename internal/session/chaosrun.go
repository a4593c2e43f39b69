package session

// chaosrun.go adapts one live session to the chaos injector: a
// chaosCluster implements chaos.Cluster over the session's node fleet,
// membership servers and virtual fabric, so internal/chaos can stay
// ignorant of the session layer. Node replacement (crash-rejoin)
// goes through a read-write-locked node set the publisher and trace
// applier read through, so a crash mid-tick never races a rejoin.

import (
	"context"
	"fmt"
	"sync"

	"github.com/tele3d/tele3d/internal/chaos"
	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// nodeSet is the session's mutable RP fleet: one slot per site, with a
// down flag the publisher and trace applier consult and a retired list
// preserving crashed nodes' delivery accounting. All mutation comes
// from the chaos controller; a chaos-free run never takes the write
// lock.
type nodeSet struct {
	mu      sync.RWMutex
	nodes   []*rp.Node
	down    []bool
	crashed []*rp.Node // last crashed node per site (nil once rejoined)
	retired []*rp.Node // every node ever replaced, for final accounting
}

func newNodeSet(n int) *nodeSet {
	return &nodeSet{
		nodes:   make([]*rp.Node, n),
		down:    make([]bool, n),
		crashed: make([]*rp.Node, n),
	}
}

// get returns the site's current node and whether it is down.
func (ns *nodeSet) get(i int) (*rp.Node, bool) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.nodes[i], ns.down[i]
}

// isDown reports whether the site is currently crashed.
func (ns *nodeSet) isDown(i int) bool {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.down[i]
}

// forEachUp invokes fn for every live (not down) node under the read
// lock, so a concurrent crash-rejoin swap never hands fn a node being
// torn down.
func (ns *nodeSet) forEachUp(fn func(i int, node *rp.Node) error) error {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	for i, node := range ns.nodes {
		if ns.down[i] || node == nil {
			continue
		}
		if err := fn(i, node); err != nil {
			return err
		}
	}
	return nil
}

// all returns the current fleet plus every retired node — the set whose
// delivery stats make up the session's totals.
func (ns *nodeSet) all() []*rp.Node {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	out := make([]*rp.Node, 0, len(ns.nodes)+len(ns.retired))
	for _, node := range ns.nodes {
		if node != nil {
			out = append(out, node)
		}
	}
	return append(out, ns.retired...)
}

// memberServer is one membership server a live run booted — a shard
// primary or the successor a membership restart booted in its place —
// served under its own context: cancel crashes it, and done carries
// Serve's outcome (nil once every RP has registered with it, which for
// a successor is the takeover itself).
type memberServer struct {
	srv    *membership.Server
	cancel context.CancelFunc
	done   chan error
}

// chaosCluster implements chaos.Cluster for one live session.
type chaosCluster struct {
	ns *nodeSet
	// mkNode builds a replacement RP for a crashed site, carrying the
	// crashed node's desired subscription set, resubscribe-ID floor and
	// publish-sequence floor.
	mkNode func(site int, desired []stream.ID, resubFloor, seqFloor uint64) (*rp.Node, error)

	// boot starts a server for shard k listening at addr (see runLive);
	// cur[k] is shard k's live server. Only the injector's goroutine
	// touches cur.
	boot func(k int, addr string) (*memberServer, error)
	cur  []*memberServer

	// vnet is the virtual fabric (nil on TCP; fabric events are
	// rejected up front in that case). west/east are the partition
	// halves, precomputed from site geography; tenant scopes the site
	// host names link-degrade addresses.
	vnet       *transport.VirtualNetwork
	west, east []string
	tenant     int
}

// CrashRP tears the site's node down ungracefully: admission bookings
// release, peers' links to it die and enter retry, and the membership
// servers keep its stale registration until the rejoin re-registers.
func (c *chaosCluster) CrashRP(site int) error {
	ns := c.ns
	ns.mu.Lock()
	if site < 0 || site >= len(ns.nodes) {
		ns.mu.Unlock()
		return fmt.Errorf("chaos: rp-crash site %d out of range", site)
	}
	if ns.down[site] {
		ns.mu.Unlock()
		return fmt.Errorf("chaos: site %d already down", site)
	}
	node := ns.nodes[site]
	ns.down[site] = true
	ns.crashed[site] = node
	ns.retired = append(ns.retired, node)
	ns.mu.Unlock()
	node.Crash()
	return nil
}

// RejoinRP boots a fresh node for a crashed site and blocks until it
// has registered with every shard and holds routing tables — the
// normal registration path, which the servers answer with a mesh-
// bearing full table and a cluster-wide peer-address delta.
func (c *chaosCluster) RejoinRP(ctx context.Context, site int) error {
	ns := c.ns
	ns.mu.RLock()
	if site < 0 || site >= len(ns.nodes) || !ns.down[site] || ns.crashed[site] == nil {
		ns.mu.RUnlock()
		return fmt.Errorf("chaos: rp-rejoin site %d is not crashed", site)
	}
	old := ns.crashed[site]
	ns.mu.RUnlock()

	node, err := c.mkNode(site, old.Desired(), old.LastResubID(), old.NextSeq())
	if err != nil {
		return fmt.Errorf("chaos: rejoin site %d: %w", site, err)
	}
	if err := node.Start(ctx); err != nil {
		node.Close()
		return fmt.Errorf("chaos: rejoin site %d: %w", site, err)
	}
	ns.mu.Lock()
	ns.nodes[site] = node
	ns.down[site] = false
	ns.crashed[site] = nil
	ns.mu.Unlock()
	return nil
}

// RestartMembership crashes the shard's live server by cancelling its
// context — the listener and every control connection die at once, no
// state is handed off — waits for it to unwind, and boots its successor
// on the same host at the same address, the one every RP holds. It
// blocks until the successor has assembled the full cluster (its Serve
// returns), i.e. every RP has re-registered.
func (c *chaosCluster) RestartMembership(ctx context.Context, shard int) error {
	if shard < 0 || shard >= len(c.cur) {
		return fmt.Errorf("chaos: membership-restart shard %d out of range", shard)
	}
	victim := c.cur[shard]
	victim.cancel()
	victim.srv.Wait()
	next, err := c.boot(shard, victim.srv.Addr())
	if err != nil {
		return fmt.Errorf("chaos: shard %d restart: %w", shard, err)
	}
	c.cur[shard] = next
	select {
	case err := <-next.done:
		if err != nil {
			return fmt.Errorf("chaos: shard %d takeover: %w", shard, err)
		}
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// SetStorm degrades every fabric link; a no-op off the virtual fabric
// (schedule validation rejects fabric events there, so this only
// triggers in degenerate tests).
func (c *chaosCluster) SetStorm(latencyMul, extraLoss float64) {
	if c.vnet != nil {
		c.vnet.SetStorm(latencyMul, extraLoss)
	}
}

// ClearStorm restores the fabric's configured link profiles.
func (c *chaosCluster) ClearStorm() {
	if c.vnet != nil {
		c.vnet.ClearStorm()
	}
}

// Partition severs the fabric between the cluster's geographic halves.
func (c *chaosCluster) Partition() {
	if c.vnet != nil && len(c.west) > 0 && len(c.east) > 0 {
		c.vnet.Partition(c.west, c.east)
	}
}

// Heal reconnects the partitioned halves.
func (c *chaosCluster) Heal() {
	if c.vnet != nil && len(c.west) > 0 && len(c.east) > 0 {
		c.vnet.Heal(c.west, c.east)
	}
}

// DegradeLinks overrides the site's link to every other site with its
// static profile scaled: latency times latencyMul, loss plus extraLoss.
func (c *chaosCluster) DegradeLinks(site int, latencyMul, extraLoss float64) {
	c.forSiteLinks(site, func(a, b string) {
		p := c.vnet.StaticLinkProfile(a, b)
		p.LatencyMs *= latencyMul
		p.Loss += extraLoss
		c.vnet.SetLinkProfile(a, b, p)
	})
}

// RestoreLinks drops the site's link overrides.
func (c *chaosCluster) RestoreLinks(site int) {
	c.forSiteLinks(site, func(a, b string) { c.vnet.ClearLinkProfile(a, b) })
}

// forSiteLinks calls fn with the host pair of the site and each other
// site; a no-op off the virtual fabric.
func (c *chaosCluster) forSiteLinks(site int, fn func(a, b string)) {
	if c.vnet == nil {
		return
	}
	a := transport.TenantSiteHost(c.tenant, site)
	for j := range c.ns.nodes {
		if j != site {
			fn(a, transport.TenantSiteHost(c.tenant, j))
		}
	}
}

// validateChaos rejects schedules the session cannot execute: events
// must be resolved (no symbolic targets), sites and shards in range,
// and fabric events require the virtual fabric.
func validateChaos(s chaos.Schedule, n, shards int, virtual bool) error {
	for _, e := range s.Events {
		switch e.Kind {
		case chaos.RPCrash, chaos.RPRejoin, chaos.LinkDegrade:
			if e.Site < 0 || e.Site >= n {
				return fmt.Errorf("session: chaos event %s: site out of range (resolve the schedule first)", e.String())
			}
		case chaos.MembershipRestart:
			if e.Shard < 0 || e.Shard >= shards {
				return fmt.Errorf("session: chaos event %s: shard out of range [0, %d)", e.String(), shards)
			}
		}
		switch e.Kind {
		case chaos.LatencyStorm, chaos.LossBurst, chaos.PartitionHeal, chaos.LinkDegrade:
			if !virtual {
				return fmt.Errorf("session: chaos event %s requires the virtual fabric", e.String())
			}
		}
	}
	return nil
}
