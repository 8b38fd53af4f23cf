// Package auth implements TeaStore's Auth service: credential
// verification against the Persistence service, HMAC-signed session
// tokens, and cart signing so the stateless WebUI can keep carts in
// cookies without trusting the client.
package auth

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/httpkit"
)

// HashIterations is the PBKDF-style work factor for password hashing —
// deliberately non-trivial CPU, since login cost is part of the Auth
// service's performance character.
const HashIterations = 2048

// HashPassword derives the stored password hash: iterated
// HMAC-SHA256(salt, password), hex encoded. It matches db.Hasher.
func HashPassword(password, salt string) string {
	mac := hmac.New(sha256.New, []byte(salt))
	mac.Write([]byte(password))
	// Every round's digest lands in the same array: Sum appends to
	// sum[:0], and Write has consumed the previous digest before Sum
	// overwrites it.
	var buf [sha256.Size]byte
	sum := mac.Sum(buf[:0])
	for i := 1; i < HashIterations; i++ {
		mac.Reset()
		mac.Write(sum)
		sum = mac.Sum(sum[:0])
	}
	return hex.EncodeToString(sum)
}

// Token is the session claim set.
type Token struct {
	UserID  int64     `json:"userId"`
	Email   string    `json:"email"`
	Expires time.Time `json:"expires"`
}

// CartItem mirrors a store cart line.
type CartItem struct {
	ProductID int64 `json:"productId"`
	Quantity  int   `json:"quantity"`
}

// persistenceAPI is the slice of the Persistence service Auth needs.
type persistenceAPI interface {
	UserByEmail(ctx context.Context, email string) (UserRecord, error)
}

// UserRecord is the persistence user projection auth consumes.
type UserRecord struct {
	ID           int64  `json:"id"`
	Email        string `json:"email"`
	PasswordHash string `json:"passwordHash"`
	Salt         string `json:"salt"`
}

// Service is one Auth instance.
type Service struct {
	key         []byte
	persistence persistenceAPI
	now         func() time.Time
}

// tokenTTL is a session token's lifetime.
const tokenTTL = 30 * time.Minute

// Option tweaks a Service.
type Option func(*Service)

// WithClock injects a fake clock for tests.
func WithClock(now func() time.Time) Option {
	return func(s *Service) { s.now = now }
}

// New returns an Auth service signing with key and verifying credentials
// via the given persistence client.
func New(key []byte, persistence persistenceAPI, opts ...Option) (*Service, error) {
	if len(key) < 16 {
		return nil, fmt.Errorf("auth: signing key must be ≥16 bytes, have %d", len(key))
	}
	s := &Service{key: key, persistence: persistence, now: time.Now}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// sign returns base64(payload) + "." + base64(hmac(payload)).
func (s *Service) sign(payload []byte) string {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(payload)
	return base64.RawURLEncoding.EncodeToString(payload) + "." +
		base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
}

// open verifies a signed blob and returns the payload.
func (s *Service) open(signed string) ([]byte, error) {
	dot := strings.IndexByte(signed, '.')
	if dot < 0 {
		return nil, fmt.Errorf("auth: malformed signed value")
	}
	payload, err := base64.RawURLEncoding.DecodeString(signed[:dot])
	if err != nil {
		return nil, fmt.Errorf("auth: bad payload encoding: %w", err)
	}
	sig, err := base64.RawURLEncoding.DecodeString(signed[dot+1:])
	if err != nil {
		return nil, fmt.Errorf("auth: bad signature encoding: %w", err)
	}
	mac := hmac.New(sha256.New, s.key)
	mac.Write(payload)
	if !hmac.Equal(sig, mac.Sum(nil)) {
		return nil, fmt.Errorf("auth: signature mismatch")
	}
	return payload, nil
}

// Login verifies credentials and issues a session token.
func (s *Service) Login(ctx context.Context, email, password string) (string, Token, error) {
	user, err := s.persistence.UserByEmail(ctx, email)
	if err != nil {
		return "", Token{}, fmt.Errorf("auth: unknown user: %w", err)
	}
	if HashPassword(password, user.Salt) != user.PasswordHash {
		return "", Token{}, fmt.Errorf("auth: wrong password for %s", email)
	}
	tok := Token{UserID: user.ID, Email: user.Email, Expires: s.now().Add(tokenTTL)}
	payload, err := json.Marshal(tok)
	if err != nil {
		return "", Token{}, err
	}
	return s.sign(payload), tok, nil
}

// Validate checks a session token's signature and expiry.
func (s *Service) Validate(signed string) (Token, error) {
	payload, err := s.open(signed)
	if err != nil {
		return Token{}, err
	}
	var tok Token
	if err := json.Unmarshal(payload, &tok); err != nil {
		return Token{}, fmt.Errorf("auth: bad token payload: %w", err)
	}
	if s.now().After(tok.Expires) {
		return Token{}, fmt.Errorf("auth: token expired at %v", tok.Expires)
	}
	return tok, nil
}

// SignCart signs a cart state for cookie storage.
func (s *Service) SignCart(items []CartItem) (string, error) {
	payload, err := json.Marshal(items)
	if err != nil {
		return "", err
	}
	return s.sign(payload), nil
}

// VerifyCart opens a signed cart.
func (s *Service) VerifyCart(signed string) ([]CartItem, error) {
	payload, err := s.open(signed)
	if err != nil {
		return nil, err
	}
	var items []CartItem
	if err := json.Unmarshal(payload, &items); err != nil {
		return nil, fmt.Errorf("auth: bad cart payload: %w", err)
	}
	return items, nil
}

// Mux returns the HTTP API:
//
//	POST /login        {email, password}      → {token, userId, email, expires}
//	POST /validate     {token}                → Token
//	POST /cart/sign    {items}                → {signed}
//	POST /cart/verify  {signed}               → {items}
func (s *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /login", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Email    string `json:"email"`
			Password string `json:"password"`
		}
		if err := httpkit.ReadJSON(r, &in); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		signed, tok, err := s.Login(r.Context(), in.Email, in.Password)
		if err != nil {
			httpkit.WriteError(w, http.StatusUnauthorized, "%v", err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{
			"token": signed, "userId": tok.UserID, "email": tok.Email, "expires": tok.Expires,
		})
	})
	mux.HandleFunc("POST /validate", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Token string `json:"token"`
		}
		if err := httpkit.ReadJSON(r, &in); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		tok, err := s.Validate(in.Token)
		if err != nil {
			httpkit.WriteError(w, http.StatusUnauthorized, "%v", err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, tok)
	})
	mux.HandleFunc("POST /cart/sign", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Items []CartItem `json:"items"`
		}
		if err := httpkit.ReadJSON(r, &in); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		signed, err := s.SignCart(in.Items)
		if err != nil {
			httpkit.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string]string{"signed": signed})
	})
	mux.HandleFunc("POST /cart/verify", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Signed string `json:"signed"`
		}
		if err := httpkit.ReadJSON(r, &in); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		items, err := s.VerifyCart(in.Signed)
		if err != nil {
			httpkit.WriteError(w, http.StatusUnauthorized, "%v", err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"items": items})
	})
	return mux
}

// Client is the typed client other services use to reach Auth.
type Client struct {
	http *httpkit.Client
	base string
}

// NewClient returns a client for an Auth instance at baseURL.
func NewClient(baseURL string, hc *httpkit.Client) *Client {
	if hc == nil {
		hc = httpkit.NewClient(0)
	}
	return &Client{http: hc, base: baseURL}
}

// LoginResult is the login response.
type LoginResult struct {
	Token   string    `json:"token"`
	UserID  int64     `json:"userId"`
	Email   string    `json:"email"`
	Expires time.Time `json:"expires"`
}

// Login authenticates remotely.
func (c *Client) Login(ctx context.Context, email, password string) (LoginResult, error) {
	var out LoginResult
	err := c.http.PostJSON(ctx, c.base+"/login",
		map[string]string{"email": email, "password": password}, &out)
	return out, err
}

// Validate checks a token remotely.
func (c *Client) Validate(ctx context.Context, token string) (Token, error) {
	var out Token
	err := c.http.PostJSON(ctx, c.base+"/validate", map[string]string{"token": token}, &out)
	return out, err
}

// SignCart signs a cart remotely.
func (c *Client) SignCart(ctx context.Context, items []CartItem) (string, error) {
	var out struct {
		Signed string `json:"signed"`
	}
	err := c.http.PostJSON(ctx, c.base+"/cart/sign", map[string]any{"items": items}, &out)
	return out.Signed, err
}

// VerifyCart opens a signed cart remotely.
func (c *Client) VerifyCart(ctx context.Context, signed string) ([]CartItem, error) {
	var out struct {
		Items []CartItem `json:"items"`
	}
	err := c.http.PostJSON(ctx, c.base+"/cart/verify", map[string]string{"signed": signed}, &out)
	return out.Items, err
}
