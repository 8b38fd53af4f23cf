// Package webui implements TeaStore's front end: HTML pages that fan out
// to the Auth, Persistence, Recommender, and ImageProvider services. Like
// the original, it fetches a page's images in one batch call and inlines
// each as a base64 data URI. Every page goes through render: the template
// writes a one-byte marker on each <img> tag into a pooled buffer, each
// image's pre-escaped src attribute is appended in its marker's place,
// and the page is sent with a Content-Length in two writes. It is the
// orchestrator every user request passes through.
package webui

import (
	"context"
	"encoding/base64"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/services/auth"
	imagesvc "repro/internal/services/image"
	"repro/internal/services/persistence"
	"repro/internal/services/recommender"
)

// Backends bundles the downstream clients the WebUI orchestrates.
type Backends struct {
	Auth        *auth.Client
	Persistence *persistence.Client
	Recommender *recommender.Client
	Image       *imagesvc.Client
}

// validate reports missing backends.
func (b Backends) validate() error {
	switch {
	case b.Auth == nil:
		return fmt.Errorf("webui: Auth backend is required")
	case b.Persistence == nil:
		return fmt.Errorf("webui: Persistence backend is required")
	case b.Recommender == nil:
		return fmt.Errorf("webui: Recommender backend is required")
	case b.Image == nil:
		return fmt.Errorf("webui: Image backend is required")
	}
	return nil
}

// Cookie names.
const (
	cookieToken = "teastore_token"
	cookieCart  = "teastore_cart"
)

const productsPerPage = 8

// placeholderPNG is an 8×8 light-gray PNG embedded when the
// ImageProvider is unreachable, so pages degrade to visible placeholders
// instead of broken image tags.
var placeholderPNG = func() []byte {
	png, err := base64.StdEncoding.DecodeString("iVBORw0KGgoAAAANSUhEUgAAAAgAAAAICAIAAABLbSncAAAAGUlEQVR4nGK5ceMGAzbAhFV00EoAAgAA///+nwKb+G5vKAAAAABJRU5ErkJggg==")
	if err != nil {
		panic(err)
	}
	return png
}()

// recCacheCap bounds the recommendation fallback cache.
const recCacheCap = 256

// recKey scopes a cached recommendation strip to one user viewing one
// anchor product: recommendations are personalized, so a fallback strip
// cached for one user must never be served to another.
type recKey struct {
	userID int64
	anchor int64
}

// recCache remembers the last good recommendation strip per (user,
// anchor product) so a dead Recommender degrades to slightly stale
// suggestions instead of an empty section. It holds products; icons are
// fetched with each page.
type recCache struct {
	mu sync.RWMutex
	m  map[recKey][]db.Product
}

func (rc *recCache) get(key recKey) ([]db.Product, bool) {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	products, ok := rc.m[key]
	return products, ok
}

func (rc *recCache) put(key recKey, products []db.Product) {
	if len(products) == 0 {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.m == nil {
		rc.m = map[recKey][]db.Product{}
	}
	if len(rc.m) >= recCacheCap {
		// Full reset beats tracking LRU order for a cache this cheap to
		// refill.
		rc.m = map[recKey][]db.Product{}
	}
	rc.m[key] = products
}

// Service is one WebUI instance.
type Service struct {
	backends Backends
	recFall  recCache
}

// New returns a WebUI over the given backends.
func New(backends Backends) (*Service, error) {
	if err := backends.validate(); err != nil {
		return nil, err
	}
	return &Service{backends: backends}, nil
}

// nav is the data every page's chrome needs.
type nav struct {
	Title      string
	Categories []db.Category
	CartCount  int
	User       string
}

// session is the per-request authentication/cart state.
type session struct {
	token    string
	claims   auth.Token
	loggedIn bool
	cart     []auth.CartItem
}

// loadSession resolves cookies against the Auth service.
func (s *Service) loadSession(r *http.Request) session {
	var sess session
	if c, err := r.Cookie(cookieToken); err == nil && c.Value != "" {
		if claims, err := s.backends.Auth.Validate(r.Context(), c.Value); err == nil {
			sess.token = c.Value
			sess.claims = claims
			sess.loggedIn = true
		}
	}
	if c, err := r.Cookie(cookieCart); err == nil && c.Value != "" {
		if items, err := s.backends.Auth.VerifyCart(r.Context(), c.Value); err == nil {
			sess.cart = items
		}
	}
	return sess
}

func (sess session) cartCount() int {
	n := 0
	for _, it := range sess.cart {
		n += it.Quantity
	}
	return n
}

// nav assembles the chrome; category fetch failures degrade to an empty
// nav rather than failing the page.
func (s *Service) nav(ctx context.Context, title string, sess session) nav {
	cats, _ := s.backends.Persistence.Categories(ctx)
	return sess.nav(title, cats)
}

// nav assembles the chrome around an already fetched category list.
func (sess session) nav(title string, cats []db.Category) nav {
	n := nav{Title: title, Categories: cats, CartCount: sess.cartCount()}
	if sess.loggedIn {
		n.User = sess.claims.Email
	}
	return n
}

func price(cents int64) string {
	return fmt.Sprintf("$%d.%02d", cents/100, cents%100)
}

// renderError writes the error page.
func (s *Service) renderError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	render(w, status, "error", struct {
		nav
		Message string
	}{s.nav(r.Context(), "Error", session{}), fmt.Sprintf(format, args...)}, nil)
}

// productCard is a grid tile; png is the image render splices in at the
// card's Img marker, nil on tiles rendered without one.
type productCard struct {
	ID    int64
	Name  string
	Price string
	png   []byte
}

// Img marks where render splices the card's image.
func (productCard) Img() template.HTMLAttr { return imgMarker }

// images fetches one page's images in a single batch call: the lead
// items, then one image of size per product, and returns them in that
// order. The batch body is read into *body, which the images alias until
// the caller releases it. A failed call or item yields the gray
// placeholder rather than failing the page or emitting a broken image
// tag.
func (s *Service) images(ctx context.Context, body *[]byte, products []db.Product, size imagesvc.Size, lead ...imagesvc.Item) [][]byte {
	items := lead
	for _, p := range products {
		items = append(items, imagesvc.Item{ID: p.ID, Size: size})
	}
	pngs, err := s.backends.Image.Images(ctx, items, body)
	if err != nil {
		pngs = make([][]byte, len(items))
	}
	for i, png := range pngs {
		if png == nil {
			pngs[i] = placeholderPNG
		}
	}
	return pngs
}

// cards builds grid tiles; pngs, when not nil, is aligned with products.
func cards(products []db.Product, pngs [][]byte) []productCard {
	out := make([]productCard, len(products))
	for i, p := range products {
		out[i] = productCard{ID: p.ID, Name: p.Name, Price: price(p.PriceCents)}
		if pngs != nil {
			out[i].png = pngs[i]
		}
	}
	return out
}

// recommended resolves a recommendation strip into products. A failed
// Recommender call falls back to the last good strip fetched for the
// same user and anchor product — stale suggestions beat an empty
// section.
func (s *Service) recommended(ctx context.Context, userID int64, current []int64, max int) []db.Product {
	key := recKey{userID: userID}
	if len(current) > 0 {
		key.anchor = current[0]
	}
	ids, err := s.backends.Recommender.Recommend(ctx, userID, current, max)
	if err != nil {
		cached, _ := s.recFall.get(key)
		return cached
	}
	// One batch round-trip resolves the whole strip; IDs the catalog no
	// longer knows are omitted by the endpoint, matching the old
	// skip-on-not-found behaviour without N sequential lookups.
	products, err := s.backends.Persistence.ProductsByIDs(ctx, ids)
	if err != nil {
		cached, _ := s.recFall.get(key)
		return cached
	}
	s.recFall.put(key, products)
	return products
}

// Mux returns the storefront routes.
func (s *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleHome)
	mux.HandleFunc("GET /category/{id}", s.handleCategory)
	mux.HandleFunc("GET /product/{id}", s.handleProduct)
	mux.HandleFunc("GET /login", s.handleLoginForm)
	mux.HandleFunc("POST /login", s.handleLogin)
	mux.HandleFunc("GET /logout", s.handleLogout)
	mux.HandleFunc("GET /cart", s.handleCart)
	mux.HandleFunc("POST /cart/add", s.handleCartAdd)
	mux.HandleFunc("POST /cart/checkout", s.handleCheckout)
	mux.HandleFunc("GET /profile", s.handleProfile)
	return mux
}

func (s *Service) handleHome(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	cats, err := s.backends.Persistence.Categories(r.Context())
	if err != nil {
		s.renderError(w, r, http.StatusBadGateway, "catalog unavailable: %v", err)
		return
	}
	// The cards and the nav show the same list: one fetch serves both.
	render(w, http.StatusOK, "home", struct {
		nav
		Tagline string
		Cards   []db.Category
	}{sess.nav("Home", cats), "Fine teas, microservice fresh.", cats}, nil)
}

func (s *Service) handleCategory(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.renderError(w, r, http.StatusBadRequest, "bad category id")
		return
	}
	page, _ := strconv.Atoi(r.URL.Query().Get("page"))
	if page < 0 {
		page = 0
	}
	cat, err := s.backends.Persistence.Category(r.Context(), id)
	if err != nil {
		s.renderError(w, r, http.StatusNotFound, "category %d: %v", id, err)
		return
	}
	listing, err := s.backends.Persistence.Products(r.Context(), id, page*productsPerPage, productsPerPage)
	if err != nil {
		s.renderError(w, r, http.StatusBadGateway, "products unavailable: %v", err)
		return
	}
	body := bodyBufs.Get().(*[]byte)
	defer releaseBody(body)
	pngs := s.images(r.Context(), body, listing.Products, imagesvc.SizePreview)
	render(w, http.StatusOK, "category", struct {
		nav
		Category db.Category
		Products []productCard
		Total    int
		Page     int
		PrevPage int
		NextPage int
		HasNext  bool
	}{
		s.nav(r.Context(), cat.Name, sess),
		cat,
		cards(listing.Products, pngs),
		listing.Total,
		page, page - 1, page + 1,
		(page+1)*productsPerPage < listing.Total,
	}, pngs)
}

func (s *Service) handleProduct(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.renderError(w, r, http.StatusBadRequest, "bad product id")
		return
	}
	p, err := s.backends.Persistence.Product(r.Context(), id)
	if err != nil {
		s.renderError(w, r, http.StatusNotFound, "product %d: %v", id, err)
		return
	}
	recs := s.recommended(r.Context(), sess.claims.UserID, []int64{p.ID}, 4)
	// One batch carries the full image and the strip's icons.
	body := bodyBufs.Get().(*[]byte)
	defer releaseBody(body)
	pngs := s.images(r.Context(), body, recs, imagesvc.SizeIcon, imagesvc.Item{ID: p.ID, Size: imagesvc.SizeFull})
	render(w, http.StatusOK, "product", productPage{
		s.nav(r.Context(), p.Name, sess), p, price(p.PriceCents), cards(recs, pngs[1:]), pngs[0],
	}, pngs)
}

// productPage is the product page's data; png is the full image render
// splices in at its Img marker.
type productPage struct {
	nav
	Product     db.Product
	Price       string
	Recommended []productCard
	png         []byte
}

// Img marks where render splices the product's full image.
func (productPage) Img() template.HTMLAttr { return imgMarker }

func (s *Service) handleLoginForm(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	render(w, http.StatusOK, "login", struct {
		nav
		Message, Email string
	}{s.nav(r.Context(), "Login", sess), "", ""}, nil)
}

func (s *Service) handleLogin(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		s.renderError(w, r, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	email := r.PostFormValue("email")
	result, err := s.backends.Auth.Login(r.Context(), email, r.PostFormValue("password"))
	if err != nil {
		render(w, http.StatusUnauthorized, "login", struct {
			nav
			Message, Email string
		}{s.nav(r.Context(), "Login", session{}), "Invalid credentials.", email}, nil)
		return
	}
	http.SetCookie(w, &http.Cookie{
		Name: cookieToken, Value: result.Token, Path: "/",
		Expires: result.Expires, HttpOnly: true,
	})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Service) handleLogout(w http.ResponseWriter, r *http.Request) {
	for _, name := range []string{cookieToken, cookieCart} {
		http.SetCookie(w, &http.Cookie{Name: name, Value: "", Path: "/", MaxAge: -1})
	}
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

// cartLine is one rendered cart row.
type cartLine struct {
	ID       int64
	Name     string
	Quantity int
	Price    string
}

func (s *Service) handleCart(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	cartIDs := make([]int64, len(sess.cart))
	for i, it := range sess.cart {
		cartIDs[i] = it.ProductID
	}
	// One batch call resolves the whole cart; products the catalog no
	// longer knows are simply not returned, so their lines are skipped
	// exactly as the per-ID loop used to.
	resolved, _ := s.backends.Persistence.ProductsByIDs(r.Context(), cartIDs)
	byID := make(map[int64]db.Product, len(resolved))
	for _, p := range resolved {
		byID[p.ID] = p
	}
	var lines []cartLine
	var total int64
	var ids []int64
	for _, it := range sess.cart {
		p, ok := byID[it.ProductID]
		if !ok {
			continue
		}
		lines = append(lines, cartLine{
			ID: p.ID, Name: p.Name, Quantity: it.Quantity,
			Price: price(p.PriceCents * int64(it.Quantity)),
		})
		total += p.PriceCents * int64(it.Quantity)
		ids = append(ids, p.ID)
	}
	render(w, http.StatusOK, "cart", struct {
		nav
		Lines       []cartLine
		Total       string
		Recommended []productCard
	}{
		s.nav(r.Context(), "Cart", sess),
		lines, price(total),
		cards(s.recommended(r.Context(), sess.claims.UserID, ids, 3), nil),
	}, nil)
}

func (s *Service) handleCartAdd(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	if err := r.ParseForm(); err != nil {
		s.renderError(w, r, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	id, err := strconv.ParseInt(r.PostFormValue("productId"), 10, 64)
	if err != nil {
		s.renderError(w, r, http.StatusBadRequest, "bad product id")
		return
	}
	if _, err := s.backends.Persistence.Product(r.Context(), id); err != nil {
		s.renderError(w, r, http.StatusNotFound, "product %d: %v", id, err)
		return
	}
	found := false
	for i := range sess.cart {
		if sess.cart[i].ProductID == id {
			sess.cart[i].Quantity++
			found = true
			break
		}
	}
	if !found {
		sess.cart = append(sess.cart, auth.CartItem{ProductID: id, Quantity: 1})
	}
	signed, err := s.backends.Auth.SignCart(r.Context(), sess.cart)
	if err != nil {
		s.renderError(w, r, http.StatusBadGateway, "cart signing failed: %v", err)
		return
	}
	http.SetCookie(w, &http.Cookie{
		Name: cookieCart, Value: signed, Path: "/",
		Expires: time.Now().Add(24 * time.Hour), HttpOnly: true,
	})
	http.Redirect(w, r, "/cart", http.StatusSeeOther)
}

func (s *Service) handleCheckout(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	if !sess.loggedIn {
		http.Redirect(w, r, "/login", http.StatusSeeOther)
		return
	}
	if len(sess.cart) == 0 {
		http.Redirect(w, r, "/cart", http.StatusSeeOther)
		return
	}
	items := make([]db.OrderItem, len(sess.cart))
	for i, it := range sess.cart {
		items[i] = db.OrderItem{ProductID: it.ProductID, Quantity: it.Quantity}
	}
	// A client-supplied order ID makes the whole checkout idempotent
	// end-to-end (a retried form POST replays instead of double-placing);
	// without one the webui→persistence hop still gets a generated key,
	// so internal retries and hedges can never double-place.
	order, err := s.backends.Persistence.PlaceOrderIdempotent(
		r.Context(), sess.claims.UserID, items, r.FormValue("clientOrderId"))
	if err != nil {
		s.renderError(w, r, http.StatusBadGateway, "checkout failed: %v", err)
		return
	}
	http.SetCookie(w, &http.Cookie{Name: cookieCart, Value: "", Path: "/", MaxAge: -1})
	render(w, http.StatusOK, "checkedout", struct {
		nav
		OrderID int64
		Total   string
	}{s.nav(r.Context(), "Order placed", session{loggedIn: sess.loggedIn, claims: sess.claims}), order.ID, price(order.TotalCents)}, nil)
}

func (s *Service) handleProfile(w http.ResponseWriter, r *http.Request) {
	sess := s.loadSession(r)
	if !sess.loggedIn {
		http.Redirect(w, r, "/login", http.StatusSeeOther)
		return
	}
	user, err := s.backends.Persistence.User(r.Context(), sess.claims.UserID)
	if err != nil {
		s.renderError(w, r, http.StatusBadGateway, "profile unavailable: %v", err)
		return
	}
	orders, err := s.backends.Persistence.Orders(r.Context(), sess.claims.UserID)
	if err != nil {
		s.renderError(w, r, http.StatusBadGateway, "orders unavailable: %v", err)
		return
	}
	type row struct {
		ID     int64
		Placed string
		Items  int
		Total  string
	}
	rows := make([]row, len(orders))
	for i, o := range orders {
		rows[i] = row{ID: o.ID, Placed: o.PlacedAt.Format("2006-01-02 15:04"), Items: len(o.Items), Total: price(o.TotalCents)}
	}
	render(w, http.StatusOK, "profile", struct {
		nav
		RealName, Email string
		Orders          []row
	}{s.nav(r.Context(), "Profile", sess), user.RealName, user.Email, rows}, nil)
}
