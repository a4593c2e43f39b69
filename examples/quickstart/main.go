// Quickstart: assemble a four-site tele-immersive session, construct the
// dissemination overlay with Random Join, and print the multicast forest
// with its rejection and utilization metrics.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/session"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the session and writes the report to w.
func run(w io.Writer) error {
	s, err := session.Build(session.Spec{
		N:               4,
		CamerasPerSite:  8,
		DisplaysPerSite: 2,
		Algorithm:       overlay.RJ{},
		Seed:            42,
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "sites:")
	for i, node := range s.Sites.Nodes {
		fmt.Fprintf(w, "  site %d: %s (%s)\n", i, node.City.Name, node.City.Country)
	}
	fmt.Fprintf(w, "\nlatency bound: %.1f ms (median pairwise cost %.1f ms)\n",
		s.Problem.Bcost, s.Sites.MedianCost())
	fmt.Fprintf(w, "subscription requests: %d\n", len(s.Problem.Requests))

	fmt.Fprintln(w, "\nmulticast forest:")
	for _, t := range s.Forest.Trees() {
		fmt.Fprintf(w, "  tree %-6s rooted at site %d:", t.Stream, t.Source)
		for _, e := range t.Edges() {
			fmt.Fprintf(w, " %d->%d", e[0], e[1])
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nrejection ratio: %.3f\n", metrics.Rejection(s.Forest))
	u := metrics.MeasureUtilization(s.Forest)
	fmt.Fprintf(w, "out-degree utilization: %.1f%% (relay share %.1f%%)\n",
		100*u.MeanOut, 100*u.RelayFraction)
	for _, r := range s.Forest.Rejected() {
		fmt.Fprintf(w, "rejected: %v\n", r)
	}
	return nil
}
