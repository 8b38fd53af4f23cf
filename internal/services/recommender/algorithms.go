// Package recommender implements TeaStore's Recommender service with
// three interchangeable algorithms trained on the order history:
//
//   - popularity: global best-sellers;
//   - slopeone: Slope One collaborative filtering over per-user purchase
//     counts;
//   - slopeone-pre: Slope One with per-user rankings materialized at
//     training time (TeaStore's "preprocessed" variant);
//   - coocc: order-based co-occurrence ("customers who bought X also
//     bought Y").
package recommender

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/db"
)

// Algorithm is one trained recommendation strategy.
type Algorithm interface {
	// Name identifies the algorithm ("popularity", ...).
	Name() string
	// Train rebuilds the model from the full order history.
	Train(orders []db.Order)
	// Recommend ranks up to max product IDs for the user, given the
	// products currently in view/cart (which are excluded from results).
	Recommend(userID int64, current []int64, max int) []int64
}

// NewAlgorithm constructs a registered algorithm by name.
func NewAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "popularity", "":
		return &Popularity{}, nil
	case "slopeone":
		return &SlopeOne{}, nil
	case "slopeone-pre":
		return &PreprocessedSlopeOne{}, nil
	case "coocc":
		return &CoOccurrence{}, nil
	default:
		return nil, fmt.Errorf("recommender: unknown algorithm %q", name)
	}
}

// AlgorithmNames lists the registered algorithms.
func AlgorithmNames() []string {
	return []string{"popularity", "slopeone", "slopeone-pre", "coocc"}
}

// scored ranks candidates.
type scored struct {
	id    int64
	score float64
}

// topN returns up to max ids by descending score (ties by ascending id for
// determinism), excluding any in skip.
func topN(scores map[int64]float64, skip []int64, max int) []int64 {
	excluded := make(map[int64]bool, len(skip))
	for _, id := range skip {
		excluded[id] = true
	}
	list := make([]scored, 0, len(scores))
	for id, sc := range scores {
		if !excluded[id] && sc > 0 {
			list = append(list, scored{id, sc})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].score != list[j].score {
			return list[i].score > list[j].score
		}
		return list[i].id < list[j].id
	})
	if max > 0 && len(list) > max {
		list = list[:max]
	}
	out := make([]int64, len(list))
	for i, s := range list {
		out[i] = s.id
	}
	return out
}

// Popularity recommends global best-sellers. Sales only change at
// Train, so the ranking is sorted there once and each Recommend walks
// it.
type Popularity struct {
	// ranking is every product with sales, by units sold descending,
	// ties by ascending id: topN's order over the same counts.
	ranking []int64
}

// Name implements Algorithm.
func (p *Popularity) Name() string { return "popularity" }

// Train counts units sold per product and ranks them.
func (p *Popularity) Train(orders []db.Order) {
	counts := map[int64]float64{}
	for _, o := range orders {
		for _, it := range o.Items {
			counts[it.ProductID] += float64(it.Quantity)
		}
	}
	p.ranking = topN(counts, nil, 0)
}

// Recommend implements Algorithm: the first max ranked products not in
// current (all of them when max ≤ 0).
func (p *Popularity) Recommend(userID int64, current []int64, max int) []int64 {
	n := len(p.ranking)
	if max > 0 && max < n {
		n = max
	}
	out := make([]int64, 0, n)
	for _, id := range p.ranking {
		if len(out) == n {
			break
		}
		if !slices.Contains(current, id) {
			out = append(out, id)
		}
	}
	return out
}

// SlopeOne implements Slope One collaborative filtering over purchase
// counts: dev[i][j] is the average difference between a user's counts of i
// and j; a user's predicted affinity for j combines their known counts
// with the deviations.
type SlopeOne struct {
	// dev[i][j] = Σ(r_i − r_j) over co-rating users; freq[i][j] counts
	// them.
	dev    map[int64]map[int64]float64
	freq   map[int64]map[int64]int
	byUser map[int64]map[int64]float64
	pop    map[int64]float64 // fallback for cold users
}

// Name implements Algorithm.
func (s *SlopeOne) Name() string { return "slopeone" }

// Train builds the deviation matrix.
func (s *SlopeOne) Train(orders []db.Order) {
	byUser := map[int64]map[int64]float64{}
	pop := map[int64]float64{}
	for _, o := range orders {
		m, ok := byUser[o.UserID]
		if !ok {
			m = map[int64]float64{}
			byUser[o.UserID] = m
		}
		for _, it := range o.Items {
			m[it.ProductID] += float64(it.Quantity)
			pop[it.ProductID] += float64(it.Quantity)
		}
	}
	dev := map[int64]map[int64]float64{}
	freq := map[int64]map[int64]int{}
	for _, ratings := range byUser {
		for i, ri := range ratings {
			di, ok := dev[i]
			if !ok {
				di = map[int64]float64{}
				fi := map[int64]int{}
				dev[i] = di
				freq[i] = fi
			}
			fi := freq[i]
			for j, rj := range ratings {
				if i == j {
					continue
				}
				di[j] += ri - rj
				fi[j]++
			}
		}
	}
	s.dev, s.freq, s.byUser, s.pop = dev, freq, byUser, pop
}

// Recommend implements Algorithm. Unknown users fall back to popularity.
func (s *SlopeOne) Recommend(userID int64, current []int64, max int) []int64 {
	ratings := s.byUser[userID]
	if len(ratings) == 0 {
		return topN(s.pop, current, max)
	}
	scores := map[int64]float64{}
	for j := range s.pop {
		if _, rated := ratings[j]; rated {
			continue
		}
		var num float64
		var den int
		for i, ri := range ratings {
			if f := s.freq[j][i]; f > 0 {
				num += (s.dev[j][i]/float64(f) + ri) * float64(f)
				den += f
			}
		}
		if den > 0 {
			scores[j] = num / float64(den)
		}
	}
	if len(scores) == 0 {
		return topN(s.pop, current, max)
	}
	return topN(scores, current, max)
}

// CoOccurrence recommends items frequently bought in the same order as
// the current items.
type CoOccurrence struct {
	pairs map[int64]map[int64]float64
	pop   map[int64]float64
}

// Name implements Algorithm.
func (c *CoOccurrence) Name() string { return "coocc" }

// Train counts same-order product pairs.
func (c *CoOccurrence) Train(orders []db.Order) {
	pairs := map[int64]map[int64]float64{}
	pop := map[int64]float64{}
	for _, o := range orders {
		for _, a := range o.Items {
			pop[a.ProductID] += float64(a.Quantity)
			m, ok := pairs[a.ProductID]
			if !ok {
				m = map[int64]float64{}
				pairs[a.ProductID] = m
			}
			for _, b := range o.Items {
				if a.ProductID != b.ProductID {
					m[b.ProductID]++
				}
			}
		}
	}
	c.pairs = pairs
	c.pop = pop
}

// Recommend implements Algorithm. With no current items (or no pair data)
// it falls back to popularity.
func (c *CoOccurrence) Recommend(userID int64, current []int64, max int) []int64 {
	scores := map[int64]float64{}
	for _, id := range current {
		for other, n := range c.pairs[id] {
			scores[other] += n
		}
	}
	if len(scores) == 0 {
		return topN(c.pop, current, max)
	}
	return topN(scores, current, max)
}
