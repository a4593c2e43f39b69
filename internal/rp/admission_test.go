package rp

import (
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

func ids(site int, n int) []stream.ID {
	out := make([]stream.ID, n)
	for i := range out {
		out[i] = stream.ID{Site: site, Index: i}
	}
	return out
}

// TestAdmissionZeroCapacity pins the satellite edge case: a
// zero-capacity controller rejects every non-premium subscription while
// premium (reserved out of band) still flows.
func TestAdmissionZeroCapacity(t *testing.T) {
	a := NewAdmission(0)
	adm, den := a.Admit("pop", 0, 0, workload.SLOPremium, ids(1, 4))
	if len(adm) != 4 || len(den) != 0 {
		t.Fatalf("premium on zero capacity: admitted %d denied %d", len(adm), len(den))
	}
	adm, den = a.Admit("pop", 1, 0, workload.SLOStandard, ids(2, 3))
	if len(adm) != 0 || len(den) != 3 {
		t.Fatalf("standard on zero capacity: admitted %d denied %d", len(adm), len(den))
	}
	adm, den = a.Admit("pop", 2, 0, workload.SLOBestEffort, ids(3, 2))
	if len(adm) != 0 || len(den) != 2 {
		t.Fatalf("besteffort on zero capacity: admitted %d denied %d", len(adm), len(den))
	}
	st := a.Stats()
	if st[0].Rejections != 0 || st[1].Rejections != 3 || st[2].Rejections != 2 {
		t.Fatalf("stats %+v", st)
	}
	if a.used["pop"] != 0 {
		t.Fatalf("used %d on zero-capacity uplink", a.used["pop"])
	}
}

// TestAdmissionPriority pins the arbitration order: best-effort fills
// spare units only, standard evicts best-effort when full, and premium
// never charges the pool.
func TestAdmissionPriority(t *testing.T) {
	a := NewAdmission(2)
	adm, den := a.Admit("pop", 2, 0, workload.SLOBestEffort, ids(1, 3))
	if len(adm) != 2 || len(den) != 1 {
		t.Fatalf("besteffort fill: admitted %d denied %d", len(adm), len(den))
	}
	// Standard displaces one best-effort booking per admitted stream.
	adm, den = a.Admit("pop", 1, 0, workload.SLOStandard, ids(2, 1))
	if len(adm) != 1 || len(den) != 0 {
		t.Fatalf("standard evicting: admitted %d denied %d", len(adm), len(den))
	}
	st := a.Stats()
	if st[2].Evictions != 1 || st[2].Admitted != 1 {
		t.Fatalf("besteffort stats after eviction: %+v", st[2])
	}
	// Standard cannot displace standard: the pool is full of its own
	// class plus the survivor.
	adm, den = a.Admit("pop", 3, 1, workload.SLOStandard, ids(3, 2))
	if len(adm) != 1 || len(den) != 1 {
		t.Fatalf("standard vs full pool: admitted %d denied %d", len(adm), len(den))
	}
	// Premium ignores the full pool entirely.
	if adm, den = a.Admit("pop", 0, 0, workload.SLOPremium, ids(4, 5)); len(adm) != 5 || len(den) != 0 {
		t.Fatalf("premium on full pool: admitted %d denied %d", len(adm), len(den))
	}
	if used := a.used["pop"]; used != 2 {
		t.Fatalf("used %d, want capacity 2", used)
	}
	// Uplinks are independent pools.
	if adm, _ := a.Admit("pop2", 2, 2, workload.SLOBestEffort, ids(5, 2)); len(adm) != 2 {
		t.Fatalf("second uplink not independent: admitted %d", len(adm))
	}
}

// TestAdmissionReleaseIdempotent pins the booking lifecycle: re-admits
// are free, releases return units, and double releases are no-ops.
func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(4)
	first := ids(1, 3)
	a.Admit("pop", 0, 0, workload.SLOStandard, first)
	a.Admit("pop", 0, 0, workload.SLOStandard, first) // idempotent re-admit
	if used := a.used["pop"]; used != 3 {
		t.Fatalf("used %d after re-admit, want 3", used)
	}
	a.Release("pop", 0, 0, first[:2])
	a.Release("pop", 0, 0, first[:2]) // double release
	if used := a.used["pop"]; used != 1 {
		t.Fatalf("used %d after release, want 1", used)
	}
	if st := a.Stats()[0]; st.Admitted != 1 {
		t.Fatalf("admitted stat %d, want 1", st.Admitted)
	}
	// Releasing an unbooked id (a shed-after-eviction) is a no-op.
	a.Release("pop", 9, 9, ids(7, 2))
	if used := a.used["pop"]; used != 1 {
		t.Fatalf("used %d after foreign release, want 1", used)
	}
}

// FuzzAdmission is the satellite invariant: whatever interleaving of
// admits and releases across tenants, classes and uplinks, the
// committed non-premium bandwidth on an uplink never exceeds its
// capacity, and the controller's book never goes negative.
func FuzzAdmission(f *testing.F) {
	f.Add(int8(2), []byte{0x12, 0x83, 0x47, 0xe1, 0x05})
	f.Add(int8(0), []byte{0xff, 0x00, 0x3c})
	f.Add(int8(7), []byte{0x21, 0x42, 0x63, 0x84, 0xa5, 0xc6})
	f.Fuzz(func(t *testing.T, capacity int8, ops []byte) {
		if capacity < 0 {
			capacity = -capacity
		}
		a := NewAdmission(int(capacity))
		uplinks := []string{"pop-a", "pop-b"}
		classes := []workload.SLOClass{workload.SLOBestEffort, workload.SLOStandard, workload.SLOPremium}
		// Each tenant keeps one class for the whole run, as real tenants
		// do: class flapping would make eviction ranking meaningless.
		tenantClass := func(tenant int) workload.SLOClass { return classes[tenant%3] }
		for i, op := range ops {
			tenant := int(op>>5) % 4
			site := int(op>>3) & 0x3
			uplink := uplinks[int(op>>2)&0x1]
			id := stream.ID{Site: int(op) & 0x3, Index: i % 5}
			if op&0x80 != 0 {
				a.Release(uplink, tenant, site, []stream.ID{id})
			} else {
				a.Admit(uplink, tenant, site, tenantClass(tenant), []stream.ID{id})
			}
			for _, u := range uplinks {
				used := a.used[u]
				if used < 0 {
					t.Fatalf("op %d: uplink %s book went negative: %d", i, u, used)
				}
				if used > int(capacity) {
					t.Fatalf("op %d: uplink %s committed %d units over capacity %d", i, u, used, capacity)
				}
			}
		}
		for tenant, st := range a.Stats() {
			if st.Admitted < 0 {
				t.Fatalf("tenant %d admitted count negative: %+v", tenant, st)
			}
		}
	})
}
