package recommender

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
)

// mkOrders builds a history where product 1 is wildly popular, 2 and 3 are
// always bought together, and user 50 only ever buys product 4.
func mkOrders() []db.Order {
	var orders []db.Order
	id := int64(1)
	add := func(user int64, items ...db.OrderItem) {
		orders = append(orders, db.Order{ID: id, UserID: user, Items: items})
		id++
	}
	for i := 0; i < 10; i++ {
		add(int64(i%5), db.OrderItem{ProductID: 1, Quantity: 3})
	}
	for i := 0; i < 5; i++ {
		add(int64(i%5),
			db.OrderItem{ProductID: 2, Quantity: 1},
			db.OrderItem{ProductID: 3, Quantity: 1})
	}
	add(50, db.OrderItem{ProductID: 4, Quantity: 2})
	add(50, db.OrderItem{ProductID: 4, Quantity: 2})
	return orders
}

func TestAlgorithmRegistry(t *testing.T) {
	for _, name := range AlgorithmNames() {
		a, err := NewAlgorithm(name)
		if err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("algorithm %q reports name %q", name, a.Name())
		}
	}
	if _, err := NewAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if a, _ := NewAlgorithm(""); a.Name() != "popularity" {
		t.Fatal("default algorithm should be popularity")
	}
}

func TestPopularityRanksBestSellers(t *testing.T) {
	p := &Popularity{}
	p.Train(mkOrders())
	got := p.Recommend(0, nil, 2)
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("top seller should be product 1, got %v", got)
	}
	// Exclusion works.
	got = p.Recommend(0, []int64{1}, 3)
	for _, id := range got {
		if id == 1 {
			t.Fatal("excluded product recommended")
		}
	}
}

// TestPopularityMatchesTopN: walking the ranking stored at Train gives
// exactly what sorting the sales counts per request gave, on random
// histories, exclusion sets (repeats and unsold ids included) and
// limits (max ≤ 0 included).
func TestPopularityMatchesTopN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		orders := make([]db.Order, rng.Intn(40))
		counts := map[int64]float64{}
		for i := range orders {
			items := make([]db.OrderItem, 1+rng.Intn(4))
			for k := range items {
				items[k] = db.OrderItem{ProductID: int64(rng.Intn(25)), Quantity: rng.Intn(4)}
				counts[items[k].ProductID] += float64(items[k].Quantity)
			}
			orders[i] = db.Order{ID: int64(i + 1), UserID: int64(rng.Intn(5)), Items: items}
		}
		p := &Popularity{}
		p.Train(orders)
		for q := 0; q < 20; q++ {
			current := make([]int64, rng.Intn(6))
			for i := range current {
				current[i] = int64(rng.Intn(30))
			}
			max := rng.Intn(30) - 3
			want := topN(counts, current, max)
			if got := p.Recommend(int64(q), current, max); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Recommend(current=%v, max=%d) = %v, want %v", trial, current, max, got, want)
			}
		}
	}
}

func TestCoOccurrenceFindsPairs(t *testing.T) {
	c := &CoOccurrence{}
	c.Train(mkOrders())
	got := c.Recommend(0, []int64{2}, 1)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("co-occurrence for {2} = %v, want [3]", got)
	}
	// No context → popularity fallback.
	got = c.Recommend(0, nil, 1)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("fallback = %v, want [1]", got)
	}
}

func TestSlopeOnePersonalizes(t *testing.T) {
	s := &SlopeOne{}
	s.Train(mkOrders())
	// User 50 has only bought product 4; nobody co-rated 4 with others, so
	// the prediction falls back to popularity-ish ordering but must not
	// recommend already-owned items by score path.
	got := s.Recommend(50, []int64{4}, 5)
	for _, id := range got {
		if id == 4 {
			t.Fatal("current item recommended")
		}
	}
	// Cold user → popularity fallback headed by product 1.
	cold := s.Recommend(999, nil, 1)
	if len(cold) != 1 || cold[0] != 1 {
		t.Fatalf("cold-user fallback = %v, want [1]", cold)
	}
	// A user who bought 2 heavily should see 3 ranked (their counts
	// correlate through co-raters).
	warm := s.Recommend(0, []int64{1}, 5)
	if len(warm) == 0 {
		t.Fatal("warm user got nothing")
	}
}

func TestRecommendDeterministic(t *testing.T) {
	for _, name := range AlgorithmNames() {
		a1, _ := NewAlgorithm(name)
		a2, _ := NewAlgorithm(name)
		a1.Train(mkOrders())
		a2.Train(mkOrders())
		x := a1.Recommend(0, []int64{2}, 10)
		y := a2.Recommend(0, []int64{2}, 10)
		if fmt.Sprint(x) != fmt.Sprint(y) {
			t.Fatalf("%s not deterministic: %v vs %v", name, x, y)
		}
	}
}

func TestEmptyTraining(t *testing.T) {
	for _, name := range AlgorithmNames() {
		a, _ := NewAlgorithm(name)
		a.Train(nil)
		if got := a.Recommend(1, []int64{5}, 3); len(got) != 0 {
			t.Fatalf("%s recommended %v from empty history", name, got)
		}
	}
}

// ordersFunc adapts a full-feed function to the incremental
// ordersSource interface (the adapter filters and pages).
type ordersFunc func(ctx context.Context) ([]db.Order, error)

func (f ordersFunc) OrdersSince(ctx context.Context, sinceID int64, limit int) ([]db.Order, error) {
	all, err := f(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]db.Order, 0, limit)
	for _, o := range all {
		if o.ID > sinceID {
			out = append(out, o)
			if len(out) == limit {
				break
			}
		}
	}
	return out, nil
}

func TestServiceLifecycle(t *testing.T) {
	src := ordersFunc(func(ctx context.Context) ([]db.Order, error) { return mkOrders(), nil })
	s, err := New("popularity", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recommend(1, nil, 3); err == nil {
		t.Fatal("untrained service recommended")
	}
	n, err := s.Train(context.Background())
	if err != nil || n != len(mkOrders()) {
		t.Fatalf("Train = %d, %v", n, err)
	}
	got, err := s.Recommend(1, nil, 3)
	if err != nil || len(got) == 0 {
		t.Fatalf("Recommend = %v, %v", got, err)
	}
	if s.Algorithm() != "popularity" {
		t.Fatal("Algorithm() wrong")
	}
}

// TestServiceRecommendDuringRetrain retrains while recommendations are
// served: under -race this checks that a retrain's new ranking is
// published only under the service's lock.
func TestServiceRecommendDuringRetrain(t *testing.T) {
	for _, name := range AlgorithmNames() {
		s, _ := New(name, nil)
		s.TrainOn(mkOrders())
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got, err := s.Recommend(int64(i%6), []int64{2}, 3); err != nil || len(got) == 0 {
						t.Errorf("%s: Recommend = %v, %v", name, got, err)
						return
					}
				}
			}()
		}
		for i := 0; i < 20; i++ {
			s.TrainOn(mkOrders()[i%4:])
		}
		wg.Wait()
	}
}

func TestServiceTrainErrors(t *testing.T) {
	s, _ := New("popularity", nil)
	if _, err := s.Train(context.Background()); err == nil {
		t.Fatal("nil source train succeeded")
	}
	failing := ordersFunc(func(ctx context.Context) ([]db.Order, error) {
		return nil, fmt.Errorf("backend down")
	})
	s2, _ := New("popularity", failing)
	if _, err := s2.Train(context.Background()); err == nil {
		t.Fatal("failing source train succeeded")
	}
}

func TestHTTPAPI(t *testing.T) {
	src := ordersFunc(func(ctx context.Context) ([]db.Order, error) { return mkOrders(), nil })
	s, _ := New("coocc", src)
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()
	c := NewClient(srv.URL, httpkit.NewClient(2*time.Second))
	ctx := context.Background()

	// Recommend before train → 409.
	if _, err := c.Recommend(ctx, 1, []int64{2}, 3); !httpkit.IsStatus(err, 409) {
		t.Fatalf("untrained err = %v", err)
	}
	n, err := c.Train(ctx)
	if err != nil || n == 0 {
		t.Fatalf("Train = %d, %v", n, err)
	}
	got, err := c.Recommend(ctx, 1, []int64{2}, 3)
	if err != nil || len(got) == 0 || got[0] != 3 {
		t.Fatalf("Recommend = %v, %v", got, err)
	}
	var info map[string]any
	if err := httpkit.NewClient(time.Second).GetJSON(ctx, srv.URL+"/info", &info); err != nil {
		t.Fatal(err)
	}
	if info["algorithm"] != "coocc" || info["trained"] != true {
		t.Fatalf("info = %v", info)
	}
}
