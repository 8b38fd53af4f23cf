package metrics

import "sort"

// Median of a small unsorted slice (sorts its argument); 0 when empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// PeerOutlier judges xs[i] against the leave-one-out median of the other
// values — with the candidate itself excluded, one sick member of a
// two-member pool cannot drag the baseline toward itself, and a pool that
// is uniformly bad has no outlier. The value stands out when it exceeds
// factor × that median *and* exceeds it by more than minExcess: a pure
// ratio trips on noise when the pool is fast (2ms vs 7ms), so an outlier
// must stand out in absolute terms too. The balancer's latency ejection
// and the reconciler's windowed-p99 replacement both judge with this
// rule; base is returned for their severity ordering and messages.
func PeerOutlier(xs []float64, i int, factor, minExcess float64) (base float64, outlier bool) {
	peers := make([]float64, 0, len(xs)-1)
	peers = append(peers, xs[:i]...)
	peers = append(peers, xs[i+1:]...)
	base = Median(peers)
	return base, base > 0 && xs[i] > factor*base && xs[i]-base > minExcess
}
