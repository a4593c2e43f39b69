// admission.go is the cross-tenant bandwidth arbiter: one Admission
// controller is shared by every RP node on a fabric and books inbound
// stream units against named uplinks (one per PoP, shared by all
// tenants whose sites land there). The paper's per-session bandwidth
// reservation becomes the premium class — provisioned out of band and
// never displaced — while standard and best-effort tenants contend for
// the pooled capacity: standard may evict best-effort bookings,
// best-effort is admitted only into spare units, and the committed
// non-premium load on an uplink never exceeds its capacity (the
// FuzzAdmission invariant).
package rp

import (
	"sort"
	"sync"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// admissionOwner identifies one booking principal: a tenant's site.
type admissionOwner struct {
	tenant int
	site   int
}

// TenantAdmissionStats summarizes one tenant's standing with the
// controller.
type TenantAdmissionStats struct {
	// SLO is the class the tenant last admitted under.
	SLO workload.SLOClass
	// Admitted is the tenant's currently booked stream count (returns
	// to zero as nodes close and release their bookings).
	Admitted int
	// TotalAdmissions counts successful bookings over the tenant's
	// lifetime; it never decrements, so it survives session teardown.
	TotalAdmissions int
	// Rejections counts admission denials over the tenant's lifetime.
	Rejections int
	// Evictions counts bookings displaced by higher classes.
	Evictions int
}

// Admission is the shared cross-tenant admission controller. Capacity
// is counted in stream units per uplink for the non-premium pool;
// premium bookings bypass the pool entirely (their reservation is
// provisioned out of band), which is why a zero-capacity controller
// rejects every non-premium subscription while premium still flows.
// All methods are safe for concurrent use by many RP nodes.
type Admission struct {
	capacity  int
	unlimited bool

	mu     sync.Mutex
	booked map[string]map[admissionOwner]map[stream.ID]bool
	used   map[string]int // non-premium units per uplink
	stats  map[int]*TenantAdmissionStats
	nodes  map[admissionOwner]*Node
}

// NewAdmission builds a controller with the given shared non-premium
// capacity per uplink, in stream units. Capacity < 0 means unlimited
// (accounting only); capacity 0 admits nothing but premium.
func NewAdmission(capacity int) *Admission {
	return &Admission{
		capacity:  capacity,
		unlimited: capacity < 0,
		booked:    map[string]map[admissionOwner]map[stream.ID]bool{},
		used:      map[string]int{},
		stats:     map[int]*TenantAdmissionStats{},
		nodes:     map[admissionOwner]*Node{},
	}
}

// eviction is one displaced booking, resolved to its live node (nil
// when the owner has no bound node) so the shed can be pushed to the
// data plane after the controller's lock is released.
type eviction struct {
	node    *Node
	victims []stream.ID
}

// Admit books ids for (tenant, site) on uplink under the given class
// and returns the admitted and denied subsets, preserving input order.
// Premium always admits; standard admits by evicting best-effort
// bookings when the pool is full; best-effort admits only into spare
// units. Already-booked ids re-admit idempotently without charge.
func (a *Admission) Admit(uplink string, tenant, site int, slo workload.SLOClass, ids []stream.ID) (admitted, denied []stream.ID) {
	var evictions []eviction
	a.mu.Lock()
	st := a.statLocked(tenant)
	st.SLO = slo
	o := admissionOwner{tenant, site}
	for _, id := range ids {
		if a.booked[uplink][o][id] {
			admitted = append(admitted, id)
			continue
		}
		if slo != workload.SLOPremium && !a.unlimited && a.used[uplink]+1 > a.capacity {
			if slo == workload.SLOBestEffort || !a.evictLocked(uplink, slo, &evictions) {
				denied = append(denied, id)
				st.Rejections++
				continue
			}
		}
		a.bookLocked(uplink, o, id, slo)
		st.Admitted++
		st.TotalAdmissions++
		admitted = append(admitted, id)
	}
	a.mu.Unlock()
	// Push evictions to the data plane outside the lock: the victim
	// node sheds the stream as if its own view dropped it.
	for _, ev := range evictions {
		if ev.node != nil {
			ev.node.shedAsync(ev.victims)
		}
	}
	return admitted, denied
}

// Release frees (tenant, site)'s bookings for ids on uplink. Unbooked
// ids are ignored, so releasing after an eviction is a no-op.
func (a *Admission) Release(uplink string, tenant, site int, ids []stream.ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	o := admissionOwner{tenant, site}
	owners := a.booked[uplink]
	for _, id := range ids {
		if owners[o][id] {
			delete(owners[o], id)
			if len(owners[o]) == 0 {
				delete(owners, o)
			}
			st := a.statLocked(tenant)
			st.Admitted--
			if st.SLO != workload.SLOPremium {
				a.used[uplink]--
			}
		}
	}
}

// bookLocked records one booking and charges the non-premium pool.
func (a *Admission) bookLocked(uplink string, o admissionOwner, id stream.ID, slo workload.SLOClass) {
	owners := a.booked[uplink]
	if owners == nil {
		owners = map[admissionOwner]map[stream.ID]bool{}
		a.booked[uplink] = owners
	}
	if owners[o] == nil {
		owners[o] = map[stream.ID]bool{}
	}
	owners[o][id] = true
	if slo != workload.SLOPremium {
		a.used[uplink]++
	}
}

// evictLocked frees one unit on uplink by displacing a booking of a
// class strictly below slo, appending the displacement to evictions.
// Victim choice is deterministic: lowest class first, then highest
// tenant index, then highest site, then highest stream ID.
func (a *Admission) evictLocked(uplink string, slo workload.SLOClass, evictions *[]eviction) bool {
	var victim *admissionOwner
	var victimSLO workload.SLOClass
	for o := range a.booked[uplink] {
		ost := a.stats[o.tenant]
		if ost == nil || ost.SLO >= slo {
			continue
		}
		if victim == nil || ost.SLO < victimSLO ||
			(ost.SLO == victimSLO && (o.tenant > victim.tenant ||
				(o.tenant == victim.tenant && o.site > victim.site))) {
			oc := o
			victim, victimSLO = &oc, ost.SLO
		}
	}
	if victim == nil {
		return false
	}
	set := a.booked[uplink][*victim]
	ids := make([]stream.ID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Site != ids[j].Site {
			return ids[i].Site > ids[j].Site
		}
		return ids[i].Index > ids[j].Index
	})
	id := ids[0]
	delete(set, id)
	if len(set) == 0 {
		delete(a.booked[uplink], *victim)
	}
	a.used[uplink]--
	st := a.statLocked(victim.tenant)
	st.Admitted--
	st.Evictions++
	*evictions = append(*evictions, eviction{node: a.nodes[*victim], victims: []stream.ID{id}})
	return true
}

// statLocked returns tenant's stats record, creating it on first use.
func (a *Admission) statLocked(tenant int) *TenantAdmissionStats {
	st := a.stats[tenant]
	if st == nil {
		st = &TenantAdmissionStats{}
		a.stats[tenant] = st
	}
	return st
}

// bind registers the live node serving (tenant, site) so evictions can
// be pushed to its data plane; unbind clears it on node close.
func (a *Admission) bind(tenant, site int, n *Node) {
	a.mu.Lock()
	a.nodes[admissionOwner{tenant, site}] = n
	a.mu.Unlock()
}

func (a *Admission) unbind(tenant, site int) {
	a.mu.Lock()
	delete(a.nodes, admissionOwner{tenant, site})
	a.mu.Unlock()
}

// Capacity reports the per-uplink non-premium capacity (negative means
// unlimited).
func (a *Admission) Capacity() int { return a.capacity }

// Stats snapshots every tenant's admission standing.
func (a *Admission) Stats() map[int]TenantAdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]TenantAdmissionStats, len(a.stats))
	for tenant, st := range a.stats {
		out[tenant] = *st
	}
	return out
}
