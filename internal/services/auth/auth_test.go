package auth

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpkit"
)

// fakePersistence is an in-memory user table.
type fakePersistence struct {
	users map[string]UserRecord
}

func (f *fakePersistence) UserByEmail(ctx context.Context, email string) (UserRecord, error) {
	u, ok := f.users[email]
	if !ok {
		return UserRecord{}, fmt.Errorf("no user %q", email)
	}
	return u, nil
}

func newFixture(t *testing.T, opts ...Option) (*Service, *fakePersistence) {
	t.Helper()
	fp := &fakePersistence{users: map[string]UserRecord{}}
	salt := "pepper"
	fp.users["a@x"] = UserRecord{ID: 7, Email: "a@x", Salt: salt, PasswordHash: HashPassword("secret", salt)}
	s, err := New([]byte("0123456789abcdef"), fp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, fp
}

func TestHashPasswordProperties(t *testing.T) {
	h1 := HashPassword("a", "s")
	h2 := HashPassword("a", "s")
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	if HashPassword("a", "t") == h1 {
		t.Fatal("salt ignored")
	}
	if HashPassword("b", "s") == h1 {
		t.Fatal("password ignored")
	}
	if len(h1) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h1))
	}
}

// TestHashPasswordGolden pins the stored-hash format: every seeded
// user's PasswordHash was derived by it, so any change to the
// iteration, the key or the encoding locks every user out.
func TestHashPasswordGolden(t *testing.T) {
	for _, c := range []struct{ password, salt, want string }{
		{"secret", "pepper", "adbe2d88fa4d0e28bfaaf5c2d97cb31395affb497086ca3eece4721aa3d53ac2"},
		{"password0", "salt0", "bb674ef89a58d4f9cc4ac121e0d9c93ed578a0bf76b3254bbd6c5c7b89551034"},
		{"", "", "242736201f0608125a69c0ec99a1acc645910a47033f671c12ef815447d70619"},
		// A salt longer than SHA-256's 64-byte block is hashed into the key.
		{"pässwörd", "a much longer salt than the hash block of sixty-four bytes, so hmac hashes the key first", "aa338eea38875281fb727ddad2a2e672312eee9d61fdce70f6ecc69240b28cf7"},
	} {
		if got := HashPassword(c.password, c.salt); got != c.want {
			t.Errorf("HashPassword(%q, %q) = %s, want %s", c.password, c.salt, got, c.want)
		}
	}
}

// TestHashPasswordAllocCeiling: the 2 048 rounds reuse one digest array,
// so a hash costs the HMAC's setup and the hex string, not an
// allocation per round.
func TestHashPasswordAllocCeiling(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, func() { HashPassword("password0", "salt0") }); allocs > 16 {
		t.Fatalf("HashPassword allocs/op = %.0f, want ≤ 16", allocs)
	}
}

func TestLoginAndValidate(t *testing.T) {
	s, _ := newFixture(t)
	signed, tok, err := s.Login(context.Background(), "a@x", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if tok.UserID != 7 || tok.Email != "a@x" {
		t.Fatalf("token claims wrong: %+v", tok)
	}
	got, err := s.Validate(signed)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != 7 {
		t.Fatalf("validated claims wrong: %+v", got)
	}
}

func TestLoginRejectsBadCredentials(t *testing.T) {
	s, _ := newFixture(t)
	if _, _, err := s.Login(context.Background(), "a@x", "wrong"); err == nil {
		t.Fatal("wrong password accepted")
	}
	if _, _, err := s.Login(context.Background(), "ghost@x", "secret"); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestValidateRejectsTampering(t *testing.T) {
	s, _ := newFixture(t)
	signed, _, err := s.Login(context.Background(), "a@x", "secret")
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"",
		"nodot",
		signed + "x",
		"AAAA." + strings.Split(signed, ".")[1],
		strings.Split(signed, ".")[0] + ".AAAA",
		"?broken?.sig",
	}
	for _, c := range cases {
		if _, err := s.Validate(c); err == nil {
			t.Fatalf("tampered token %q accepted", c)
		}
	}
}

func TestValidateRejectsForeignKey(t *testing.T) {
	s1, _ := newFixture(t)
	fp := &fakePersistence{users: map[string]UserRecord{
		"a@x": {ID: 7, Email: "a@x", Salt: "pepper", PasswordHash: HashPassword("secret", "pepper")},
	}}
	s2, err := New([]byte("fedcba9876543210"), fp)
	if err != nil {
		t.Fatal(err)
	}
	signed, _, err := s2.Login(context.Background(), "a@x", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Validate(signed); err == nil {
		t.Fatal("token from another key accepted")
	}
}

func TestTokenExpiry(t *testing.T) {
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	s, _ := newFixture(t, WithTokenTTL(time.Minute), WithClock(func() time.Time { return now }))
	signed, _, err := s.Login(context.Background(), "a@x", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Validate(signed); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := s.Validate(signed); err == nil {
		t.Fatal("expired token accepted")
	}
}

func TestCartSignRoundTrip(t *testing.T) {
	s, _ := newFixture(t)
	items := []CartItem{{ProductID: 3, Quantity: 2}, {ProductID: 9, Quantity: 1}}
	signed, err := s.SignCart(items)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.VerifyCart(signed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != items[0] || got[1] != items[1] {
		t.Fatalf("cart round-trip lost data: %v", got)
	}
	if _, err := s.VerifyCart(signed + "x"); err == nil {
		t.Fatal("tampered cart accepted")
	}
	empty, err := s.SignCart(nil)
	if err != nil {
		t.Fatal(err)
	}
	if items, err := s.VerifyCart(empty); err != nil || len(items) != 0 {
		t.Fatal("empty cart round-trip failed")
	}
}

func TestWeakKeyRejected(t *testing.T) {
	if _, err := New([]byte("short"), nil); err == nil {
		t.Fatal("weak key accepted")
	}
}

func TestHTTPAPI(t *testing.T) {
	s, _ := newFixture(t)
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()
	c := NewClient(srv.URL, httpkit.NewClient(2*time.Second))
	ctx := context.Background()

	res, err := c.Login(ctx, "a@x", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if res.UserID != 7 || res.Token == "" {
		t.Fatalf("login result wrong: %+v", res)
	}
	tok, err := c.Validate(ctx, res.Token)
	if err != nil || tok.UserID != 7 {
		t.Fatalf("validate wrong: %+v %v", tok, err)
	}
	if _, err := c.Login(ctx, "a@x", "nope"); !httpkit.IsStatus(err, 401) {
		t.Fatalf("bad login err = %v", err)
	}
	if _, err := c.Validate(ctx, "garbage"); !httpkit.IsStatus(err, 401) {
		t.Fatalf("bad token err = %v", err)
	}

	signed, err := c.SignCart(ctx, []CartItem{{ProductID: 1, Quantity: 3}})
	if err != nil {
		t.Fatal(err)
	}
	items, err := c.VerifyCart(ctx, signed)
	if err != nil || len(items) != 1 || items[0].Quantity != 3 {
		t.Fatalf("cart verify wrong: %v %v", items, err)
	}
	if _, err := c.VerifyCart(ctx, "bogus"); !httpkit.IsStatus(err, 401) {
		t.Fatalf("bogus cart err = %v", err)
	}
}
