package vas

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/strtree"
)

// This file implements the density-embedding extension of §V: VAS alone
// flattens density (it spreads points out), so for density-estimation and
// clustering tasks the paper attaches a counter to every sampled point and,
// in a second pass over the dataset, increments the counter of the nearest
// sampled point. The counts are then encoded visually (dot size or jitter).

// WeightedSample is a sample whose points carry the density counts of the
// dataset regions they represent. Count[i] is the number of dataset points
// whose nearest sample point is Points[i] (every sample point counts itself
// via the pass, so counts sum to the dataset size).
type WeightedSample struct {
	Points []geom.Point
	IDs    []int
	Counts []int64
}

// Len returns the number of sample points.
func (w *WeightedSample) Len() int { return len(w.Points) }

// TotalCount returns the sum of all counts, which equals the number of
// dataset points streamed through the density pass.
func (w *WeightedSample) TotalCount() int64 {
	var t int64
	for _, c := range w.Counts {
		t += c
	}
	return t
}

// DensityPass performs the §V second pass: for every dataset point it finds
// the nearest sample point through a packed STR tree over the sample
// (strtree.Build; O(log K) per point, O(N log K) total) and increments
// that sample point's counter.
//
// sample and ids must be parallel slices as returned by Interchange.Sample
// and Interchange.SampleIDs; ids may be nil when the caller does not track
// dataset indices.
func DensityPass(sample []geom.Point, ids []int, data []geom.Point) (*WeightedSample, error) {
	if len(sample) == 0 {
		return nil, errors.New("vas: density pass needs a non-empty sample")
	}
	if ids != nil && len(ids) != len(sample) {
		return nil, fmt.Errorf("vas: ids length %d != sample length %d", len(ids), len(sample))
	}
	t := strtree.Build(sample, nil)
	counts := make([]int64, len(sample))
	for _, p := range data {
		i, _, _, ok := t.Nearest(p)
		if !ok {
			break // unreachable: tree is non-empty
		}
		counts[i]++
	}
	ws := &WeightedSample{
		Points: append([]geom.Point(nil), sample...),
		Counts: counts,
	}
	if ids != nil {
		ws.IDs = append([]int(nil), ids...)
	}
	return ws, nil
}
