package recommender

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/db"
	"repro/internal/httpkit"
)

// ordersSource feeds training data incrementally: up to limit orders
// with ID > sinceID, in ID order. The Persistence client satisfies it.
type ordersSource interface {
	OrdersSince(ctx context.Context, sinceID int64, limit int) ([]db.Order, error)
}

// trainPage sizes one incremental fetch of the training feed.
const trainPage = 500

// Service hosts one algorithm behind the HTTP API. Training is
// incremental: the order history accumulates across Train calls and
// each retrain only fetches orders newer than the last seen ID, so a
// periodic retrain costs O(new orders), not O(all orders).
type Service struct {
	mu      sync.RWMutex
	algo    Algorithm
	source  ordersSource
	trained bool
	history []db.Order // every order seen, ID-ordered
	lastID  int64

	// trainMu serializes the fetch+apply of Train so two concurrent
	// retrains cannot double-append the same page.
	trainMu sync.Mutex
}

// New returns a Recommender running the named algorithm, training from
// source.
func New(algorithm string, source ordersSource) (*Service, error) {
	algo, err := NewAlgorithm(algorithm)
	if err != nil {
		return nil, err
	}
	return &Service{algo: algo, source: source}, nil
}

// Train fetches orders placed since the last training pass, appends them
// to the cached history, and rebuilds the model. It returns the total
// number of orders the model is now trained on.
func (s *Service) Train(ctx context.Context) (int, error) {
	if s.source == nil {
		return 0, fmt.Errorf("recommender: no order source configured")
	}
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	s.mu.RLock()
	since := s.lastID
	s.mu.RUnlock()
	var fresh []db.Order
	for {
		page, err := s.source.OrdersSince(ctx, since, trainPage)
		if err != nil {
			return 0, fmt.Errorf("recommender: fetching orders: %w", err)
		}
		fresh = append(fresh, page...)
		if len(page) < trainPage {
			break
		}
		since = page[len(page)-1].ID
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(fresh) > 0 {
		s.history = append(s.history, fresh...)
		s.lastID = s.history[len(s.history)-1].ID
	}
	s.algo.Train(s.history)
	s.trained = true
	return len(s.history), nil
}

// TrainOn rebuilds the model from the given orders (embedded use),
// replacing any incrementally accumulated history.
func (s *Service) TrainOn(orders []db.Order) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history = append([]db.Order(nil), orders...)
	s.lastID = 0
	for _, o := range orders {
		if o.ID > s.lastID {
			s.lastID = o.ID
		}
	}
	s.algo.Train(s.history)
	s.trained = true
}

// Recommend ranks products; it returns an error until trained.
func (s *Service) Recommend(userID int64, current []int64, max int) ([]int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.trained {
		return nil, fmt.Errorf("recommender: model not trained")
	}
	if max <= 0 {
		max = 10
	}
	return s.algo.Recommend(userID, current, max), nil
}

// RecommendRequest is the /recommend body.
type RecommendRequest struct {
	UserID  int64   `json:"userId"`
	ItemIDs []int64 `json:"itemIds"`
	Max     int     `json:"max"`
}

// Mux returns the HTTP API:
//
//	POST /train                         → {orders}
//	POST /recommend  RecommendRequest   → {products: [...ids]}
//	GET  /info                          → {algorithm, trained, orders}
func (s *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /train", func(w http.ResponseWriter, r *http.Request) {
		n, err := s.Train(r.Context())
		if err != nil {
			httpkit.WriteError(w, http.StatusBadGateway, "%v", err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string]int{"orders": n})
	})
	mux.HandleFunc("POST /recommend", func(w http.ResponseWriter, r *http.Request) {
		var req RecommendRequest
		if err := httpkit.ReadJSON(r, &req); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		products, err := s.Recommend(req.UserID, req.ItemIDs, req.Max)
		if err != nil {
			httpkit.WriteError(w, http.StatusConflict, "%v", err)
			return
		}
		if products == nil {
			products = []int64{}
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string][]int64{"products": products})
	})
	mux.HandleFunc("GET /info", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{
			"algorithm": s.algo.Name(), "trained": s.trained, "orders": len(s.history),
		})
	})
	return mux
}

// Client reaches a remote Recommender.
type Client struct {
	http *httpkit.Client
	base string
}

// NewClient returns a client for a Recommender instance at baseURL.
func NewClient(baseURL string, hc *httpkit.Client) *Client {
	if hc == nil {
		hc = httpkit.NewClient(0)
	}
	return &Client{http: hc, base: baseURL}
}

// Recommend fetches recommendations.
func (c *Client) Recommend(ctx context.Context, userID int64, items []int64, max int) ([]int64, error) {
	var out struct {
		Products []int64 `json:"products"`
	}
	err := c.http.PostJSON(ctx, c.base+"/recommend",
		RecommendRequest{UserID: userID, ItemIDs: items, Max: max}, &out)
	return out.Products, err
}
