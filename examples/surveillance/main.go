// Surveillance: a distributed camera-monitoring scenario (§1 lists
// surveillance among the target applications) with eight sites, random
// stream popularity, and heterogeneous site capacities. The example
// compares plain Random Join with correlation-aware CO-RJ on the same
// workload and reports both the plain and the criticality-weighted
// rejection metric — CO-RJ sheds whole scenes less often.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"github.com/tele3d/tele3d/internal/geo"
	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/topology"
	"github.com/tele3d/tele3d/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the workload, compares the two algorithms and writes the
// report to out.
func run(out io.Writer) error {
	backbone, err := topology.Backbone(geo.DefaultLatencyModel())
	if err != nil {
		return err
	}
	allCost, err := backbone.CostMatrix()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(31))
	var sites topology.SiteSet
	if err := backbone.SelectSitesInto(&sites, allCost, 8, rng); err != nil {
		return err
	}
	w, err := workload.Generate(workload.Config{
		N:                 8,
		Capacity:          workload.CapacityHeterogeneous,
		Popularity:        workload.PopularityZipfSites,
		Mode:              workload.ModeCoverage,
		CoverageRate:      1.0,
		SubscribeFraction: 0.2,
		ZipfExponent:      1.6,
	}, rng)
	if err != nil {
		return err
	}
	p, err := overlay.FromWorkload(w, sites.Cost, sites.MedianCost()*3)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "monitoring centres:")
	for i, node := range sites.Nodes {
		fmt.Fprintf(out, "  site %d: %-16s capacity %2d streams, %2d cameras, %2d subscriptions\n",
			i, node.City.Name, w.Sites[i].Out, w.Sites[i].NumStreams, len(w.Subs[i]))
	}

	// Average both algorithms over many construction seeds on the same
	// workload: single runs are noisy.
	const seeds = 50
	fmt.Fprintf(out, "\n%-6s  %-10s %s\n", "algo", "rejection", "weighted X' (Eq. 3)")
	for _, alg := range []overlay.Algorithm{overlay.RJ{}, overlay.CORJ{}} {
		var rej, wx float64
		for seed := int64(0); seed < seeds; seed++ {
			f, err := alg.Construct(p, rand.New(rand.NewSource(seed)))
			if err != nil {
				return err
			}
			if err := f.Validate(); err != nil {
				return err
			}
			rej += metrics.Rejection(f)
			wx += metrics.WeightedRejectionRaw(f)
		}
		fmt.Fprintf(out, "%-6s  %-10.3f %.3f\n", alg.Name(), rej/seeds, wx/seeds)
	}
	fmt.Fprintln(out, "\nCO-RJ trades low-criticality streams for critical ones, lowering the")
	fmt.Fprintln(out, "correlation-weighted loss X' at an equal raw rejection ratio.")
	return nil
}
