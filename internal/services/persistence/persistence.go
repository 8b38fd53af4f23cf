// Package persistence exposes the embedded db.Store over HTTP/JSON — the
// TeaStore Persistence service, standing in for the original's
// MariaDB-backed registry of categories, products, users, and orders.
package persistence

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/services/auth"
	"repro/internal/shardmap"
)

// Service wraps one shard of a persistence cluster with its HTTP API.
// Catalog reads are served from the local store (the catalog is shared
// reference data); order reads and writes are executed against the
// owning shard's store regardless of which replica received the request.
type Service struct {
	cluster *Cluster
	shard   int
	store   *db.Store // this replica's own shard, = cluster.Store(shard)
}

// NewSharded returns the Persistence service for one shard of a
// cluster. Replicas of the same shard share the shard index.
func NewSharded(cluster *Cluster, shard int) *Service {
	return &Service{cluster: cluster, shard: shard, store: cluster.Store(shard)}
}

// statusFor maps store errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, db.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, db.ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, db.ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeStoreError(w http.ResponseWriter, err error) {
	httpkit.WriteError(w, statusFor(err), "%v", err)
}

// ProductPage is the paginated product list response.
type ProductPage struct {
	Products []db.Product `json:"products"`
	Total    int          `json:"total"`
	Offset   int          `json:"offset"`
}

// OrderRequest is the checkout write. ClientOrderID is the optional
// client-supplied idempotency key (the Idempotency-Key header wins when
// both are present): replays of the same key return the original order
// instead of placing a second one, which is what makes checkout safely
// retryable.
type OrderRequest struct {
	UserID        int64          `json:"userId"`
	Items         []db.OrderItem `json:"items"`
	ClientOrderID string         `json:"clientOrderId,omitempty"`
}

// BatchProductsRequest asks for many products in one round-trip.
type BatchProductsRequest struct {
	IDs []int64 `json:"ids"`
}

// BatchProductsResponse carries the resolved products in request order;
// IDs that don't exist are omitted, never errors — per-ID not-found
// must not fail the whole batch.
type BatchProductsResponse struct {
	Products []db.Product `json:"products"`
}

// maxBatchProducts bounds one batch lookup so a client cannot ask for
// the whole catalog in a single request.
const maxBatchProducts = 256

// Mux returns the HTTP API:
//
//	GET  /categories
//	GET  /categories/{id}
//	GET  /categories/{id}/products?offset=&limit=
//	GET  /products/{id}
//	POST /products/batch            {ids} → {products} (missing IDs omitted)
//	GET  /user-by-email/{email}
//	GET  /users/{id}
//	GET  /users/{id}/orders
//	POST /orders                    {userId, items, clientOrderId?} (+ Idempotency-Key header)
//	GET  /orders?sinceId=&limit=    (incremental training feed, ID-ordered)
//	POST /generate                  db.GenerateSpec
//	GET  /stats
func (s *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /categories", func(w http.ResponseWriter, r *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, s.store.Categories())
	})
	mux.HandleFunc("GET /categories/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r, "id")
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		cat, err := s.store.Category(id)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, cat)
	})
	mux.HandleFunc("GET /categories/{id}/products", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r, "id")
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		offset, err := queryInt(r, "offset", 0)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		limit, err := queryInt(r, "limit", 20)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		products, total, err := s.store.ProductsByCategory(id, offset, limit)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, ProductPage{Products: products, Total: total, Offset: offset})
	})
	mux.HandleFunc("GET /products/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r, "id")
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		p, err := s.store.Product(id)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("POST /products/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchProductsRequest
		if err := httpkit.ReadJSON(r, &req); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(req.IDs) > maxBatchProducts {
			httpkit.WriteError(w, http.StatusBadRequest,
				"persistence: batch of %d products exceeds the %d limit", len(req.IDs), maxBatchProducts)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, BatchProductsResponse{Products: s.store.ProductsByIDs(req.IDs)})
	})
	mux.HandleFunc("GET /user-by-email/{email}", func(w http.ResponseWriter, r *http.Request) {
		email, err := url.PathUnescape(r.PathValue("email"))
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "bad email: %v", err)
			return
		}
		u, err := s.store.UserByEmail(email)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, u)
	})
	mux.HandleFunc("GET /users/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r, "id")
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		u, err := s.store.User(id)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, u)
	})
	mux.HandleFunc("GET /users/{id}/orders", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r, "id")
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Order state lives on the user's owner shard; routing here keeps
		// history reads correct even when the balancer's read fallback
		// landed the request on a sibling.
		orders, err := s.cluster.StoreFor(id).OrdersByUser(id)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, orders)
	})
	mux.HandleFunc("POST /orders", func(w http.ResponseWriter, r *http.Request) {
		var req OrderRequest
		if err := httpkit.ReadJSON(r, &req); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			key = req.ClientOrderID
		}
		if key != "" {
			// Scope the key per user so two users picking the same token
			// can never collapse into one order.
			key = fmt.Sprintf("%d/%s", req.UserID, key)
		}
		// Execute on the owning shard regardless of which replica got the
		// request: ownership — and with it idempotency dedupe — must not
		// depend on routing being right.
		order, replayed, err := s.cluster.StoreFor(req.UserID).PlaceOrderIdempotent(key, req.UserID, req.Items, time.Now())
		if err != nil {
			writeStoreError(w, err)
			return
		}
		if replayed {
			w.Header().Set("Idempotent-Replay", "true")
		}
		httpkit.WriteJSON(w, http.StatusCreated, order)
	})
	mux.HandleFunc("GET /orders", func(w http.ResponseWriter, r *http.Request) {
		sinceID, err := queryInt64(r, "sinceId", 0)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		limit, err := queryInt(r, "limit", defaultOrderPage)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if limit <= 0 || limit > maxOrderPage {
			limit = maxOrderPage
		}
		httpkit.WriteJSON(w, http.StatusOK, s.cluster.OrdersSince(sinceID, limit))
	})
	mux.HandleFunc("POST /generate", func(w http.ResponseWriter, r *http.Request) {
		spec := db.DefaultGenerateSpec()
		if r.ContentLength > 0 {
			if err := httpkit.ReadJSON(r, &spec); err != nil {
				httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		if err := s.cluster.Generate(spec, auth.HashPassword); err != nil {
			writeStoreError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, s.stats())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, s.stats())
	})
	return mux
}

func (s *Service) stats() map[string]int {
	return map[string]int{
		"categories": len(s.store.Categories()),
		"products":   s.store.NumProducts(),
		"users":      s.store.NumUsers(),
		"orders":     s.cluster.NumOrders(),
		"shard":      s.shard,
		"shards":     s.cluster.NumShards(),
	}
}

// defaultOrderPage and maxOrderPage bound the incremental feed: the
// default keeps pages cheap, the cap keeps a hostile limit from turning
// the paged route into one unbounded copy of the order table.
const (
	defaultOrderPage = 256
	maxOrderPage     = 1000
)

func pathID(r *http.Request, key string) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue(key), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("persistence: bad %s %q", key, r.PathValue(key))
	}
	return id, nil
}

// queryInt parses an optional integer query parameter: absent means the
// default, malformed means an error — silently serving defaults for
// ?limit=abc masks client bugs as full-page responses.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("persistence: bad %s %q", key, v)
	}
	return n, nil
}

// queryInt64 is queryInt for 64-bit cursors.
func queryInt64(r *http.Request, key string, def int64) (int64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("persistence: bad %s %q", key, v)
	}
	return n, nil
}

// Client is the typed client for remote Persistence access.
type Client struct {
	http *httpkit.Client
	base string
}

// NewClient returns a client for a Persistence instance at baseURL.
func NewClient(baseURL string, hc *httpkit.Client) *Client {
	if hc == nil {
		hc = httpkit.NewClient(0)
	}
	return &Client{http: hc, base: baseURL}
}

// Categories lists categories.
func (c *Client) Categories(ctx context.Context) ([]db.Category, error) {
	var out []db.Category
	err := c.http.GetJSON(ctx, c.base+"/categories", &out)
	return out, err
}

// Category fetches one category.
func (c *Client) Category(ctx context.Context, id int64) (db.Category, error) {
	var out db.Category
	err := c.http.GetJSON(ctx, fmt.Sprintf("%s/categories/%d", c.base, id), &out)
	return out, err
}

// Products pages a category's products.
func (c *Client) Products(ctx context.Context, categoryID int64, offset, limit int) (ProductPage, error) {
	var out ProductPage
	err := c.http.GetJSON(ctx,
		fmt.Sprintf("%s/categories/%d/products?offset=%d&limit=%d", c.base, categoryID, offset, limit), &out)
	return out, err
}

// Product fetches one product.
func (c *Client) Product(ctx context.Context, id int64) (db.Product, error) {
	var out db.Product
	err := c.http.GetJSON(ctx, fmt.Sprintf("%s/products/%d", c.base, id), &out)
	return out, err
}

// ProductsByIDs resolves many products in one round-trip. Missing IDs
// are omitted from the result; order follows the request. The POST is a
// pure read, so it opts into the client's idempotent retry policy.
func (c *Client) ProductsByIDs(ctx context.Context, ids []int64) ([]db.Product, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	ctx = httpkit.WithCallRetry(ctx, httpkit.RetryPolicy{RetryNonIdempotent: true})
	var out BatchProductsResponse
	err := c.http.PostJSON(ctx, c.base+"/products/batch", BatchProductsRequest{IDs: ids}, &out)
	return out.Products, err
}

// UserByEmail fetches a user record for Auth; it satisfies the
// persistence interface auth.Service needs.
func (c *Client) UserByEmail(ctx context.Context, email string) (auth.UserRecord, error) {
	var out auth.UserRecord
	err := c.http.GetJSON(ctx, c.base+"/user-by-email/"+url.PathEscape(email), &out)
	return out, err
}

// User fetches a user by ID.
func (c *Client) User(ctx context.Context, id int64) (db.User, error) {
	var out db.User
	err := c.http.GetJSON(ctx, fmt.Sprintf("%s/users/%d", c.base, id), &out)
	return out, err
}

// Orders lists a user's orders. The shard key routes the read to the
// owner shard's replicas (locality; any replica answers correctly).
func (c *Client) Orders(ctx context.Context, userID int64) ([]db.Order, error) {
	ctx = httpkit.WithShardKey(ctx, shardmap.UserKey(userID))
	var out []db.Order
	err := c.http.GetJSON(ctx, fmt.Sprintf("%s/users/%d/orders", c.base, userID), &out)
	return out, err
}

// PlaceOrder writes an order with a fresh idempotency key.
func (c *Client) PlaceOrder(ctx context.Context, userID int64, items []db.OrderItem) (db.Order, error) {
	return c.PlaceOrderIdempotent(ctx, userID, items, "")
}

// PlaceOrderIdempotent writes an order deduped by key; an empty key gets
// a generated one. Because replays return the original order, the call
// opts into non-idempotent retries and hedging — a timed-out or hedged
// checkout can no longer double-place.
func (c *Client) PlaceOrderIdempotent(ctx context.Context, userID int64, items []db.OrderItem, key string) (db.Order, error) {
	if key == "" {
		key = NewOrderKey()
	}
	ctx = httpkit.WithShardKey(ctx, shardmap.UserKey(userID))
	ctx = httpkit.WithCallRetry(ctx, httpkit.RetryPolicy{RetryNonIdempotent: true})
	var out db.Order
	err := c.http.PostJSON(ctx, c.base+"/orders",
		OrderRequest{UserID: userID, Items: items, ClientOrderID: key}, &out)
	return out, err
}

// NewOrderKey returns a fresh random idempotency key for one logical
// checkout.
func NewOrderKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Out of kernel entropy is not a checkout failure; fall back to
		// a time-derived key (worse uniqueness, same correctness).
		return fmt.Sprintf("t-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// OrdersSince pages the training feed: up to limit orders with ID >
// sinceID, in ID order.
func (c *Client) OrdersSince(ctx context.Context, sinceID int64, limit int) ([]db.Order, error) {
	var out []db.Order
	err := c.http.GetJSON(ctx, fmt.Sprintf("%s/orders?sinceId=%d&limit=%d", c.base, sinceID, limit), &out)
	return out, err
}

// Generate (re)seeds the catalog.
func (c *Client) Generate(ctx context.Context, spec db.GenerateSpec) error {
	return c.http.PostJSON(ctx, c.base+"/generate", spec, nil)
}
