package webui

import (
	"bytes"
	"encoding/base64"
	"html/template"
	"strings"
	"sync"
)

// pageTemplates is the complete UI, compiled once at start-up.
var pageTemplates = template.Must(template.New("layout").Parse(pageSource))

// pageSource is the template text. The layout deliberately mirrors the
// original TeaStore: a storefront with category navigation, product grids
// with embedded base64 preview images, a cart, and a profile page. Every
// product image is an imgSrc attribute spliced into its <img> tag.
const pageSource = `
{{define "header"}}<!DOCTYPE html>
<html lang="en">
<head><meta charset="utf-8"><title>TeaStore — {{.Title}}</title>
<style>
body{font-family:sans-serif;margin:0;background:#f7f4ef;color:#222}
nav{background:#2e5339;color:#fff;padding:0.6em 1em;display:flex;gap:1em;align-items:center}
nav a{color:#fff;text-decoration:none}
main{max-width:60em;margin:1em auto;padding:0 1em}
.grid{display:flex;flex-wrap:wrap;gap:1em}
.card{background:#fff;border:1px solid #ddd;border-radius:6px;padding:0.8em;width:11em}
.card img{width:100%;border-radius:4px}
.price{font-weight:bold;color:#2e5339}
table{border-collapse:collapse;width:100%}
td,th{border-bottom:1px solid #ddd;padding:0.4em;text-align:left}
.error{background:#fde2e2;border:1px solid #c33;padding:1em;border-radius:6px}
form.inline{display:inline}
button{background:#2e5339;color:#fff;border:0;border-radius:4px;padding:0.4em 0.8em;cursor:pointer}
input{padding:0.35em;margin:0.2em 0}
</style></head>
<body>
<nav>
<a href="/"><strong>TeaStore</strong></a>
{{range .Categories}}<a href="/category/{{.ID}}">{{.Name}}</a>{{end}}
<span style="margin-left:auto"></span>
<a href="/cart">Cart ({{.CartCount}})</a>
{{if .User}}<a href="/profile">{{.User}}</a><a href="/logout">Logout</a>{{else}}<a href="/login">Login</a>{{end}}
</nav>
<main>{{end}}

{{define "footer"}}</main></body></html>{{end}}

{{define "home"}}{{template "header" .}}
<h1>Welcome to the TeaStore</h1>
<p>{{.Tagline}}</p>
<div class="grid">
{{range .Cards}}
<div class="card"><a href="/category/{{.ID}}"><h3>{{.Name}}</h3></a><p>{{.Description}}</p></div>
{{end}}
</div>
{{template "footer" .}}{{end}}

{{define "category"}}{{template "header" .}}
<h1>{{.Category.Name}}</h1>
<p>{{.Category.Description}} ({{.Total}} products)</p>
<div class="grid">
{{range .Products}}
<div class="card">
<a href="/product/{{.ID}}"><img {{.Img}} alt="{{.Name}}"></a>
<a href="/product/{{.ID}}">{{.Name}}</a>
<div class="price">{{.Price}}</div>
</div>
{{end}}
</div>
<p>
{{if gt .Page 0}}<a href="/category/{{.Category.ID}}?page={{.PrevPage}}">← previous</a>{{end}}
{{if .HasNext}}<a href="/category/{{.Category.ID}}?page={{.NextPage}}">next →</a>{{end}}
</p>
{{template "footer" .}}{{end}}

{{define "product"}}{{template "header" .}}
<h1>{{.Product.Name}}</h1>
<div class="grid">
<div class="card" style="width:26em">
<img {{.Img}} alt="{{.Product.Name}}">
<p>{{.Product.Description}}</p>
<div class="price">{{.Price}}</div>
<form class="inline" method="post" action="/cart/add">
<input type="hidden" name="productId" value="{{.Product.ID}}">
<button type="submit">Add to cart</button>
</form>
</div>
</div>
<h2>You might also like</h2>
<div class="grid">
{{range .Recommended}}
<div class="card">
<a href="/product/{{.ID}}"><img {{.Img}} alt="{{.Name}}"></a>
<a href="/product/{{.ID}}">{{.Name}}</a>
<div class="price">{{.Price}}</div>
</div>
{{end}}
</div>
{{template "footer" .}}{{end}}

{{define "cart"}}{{template "header" .}}
<h1>Your cart</h1>
{{if .Lines}}
<table>
<tr><th>Product</th><th>Qty</th><th>Price</th></tr>
{{range .Lines}}<tr><td><a href="/product/{{.ID}}">{{.Name}}</a></td><td>{{.Quantity}}</td><td>{{.Price}}</td></tr>{{end}}
<tr><th>Total</th><th></th><th>{{.Total}}</th></tr>
</table>
<form method="post" action="/cart/checkout"><button type="submit">Checkout</button></form>
{{else}}<p>Your cart is empty.</p>{{end}}
<h2>Advertised for you</h2>
<div class="grid">
{{range .Recommended}}
<div class="card"><a href="/product/{{.ID}}">{{.Name}}</a><div class="price">{{.Price}}</div></div>
{{end}}
</div>
{{template "footer" .}}{{end}}

{{define "login"}}{{template "header" .}}
<h1>Login</h1>
{{if .Message}}<p class="error">{{.Message}}</p>{{end}}
<form method="post" action="/login">
<p><input name="email" placeholder="email" value="{{.Email}}"></p>
<p><input name="password" type="password" placeholder="password"></p>
<button type="submit">Sign in</button>
</form>
{{template "footer" .}}{{end}}

{{define "profile"}}{{template "header" .}}
<h1>{{.RealName}}</h1>
<p>{{.Email}}</p>
<h2>Order history</h2>
{{if .Orders}}
<table>
<tr><th>Order</th><th>Placed</th><th>Items</th><th>Total</th></tr>
{{range .Orders}}<tr><td>#{{.ID}}</td><td>{{.Placed}}</td><td>{{.Items}}</td><td>{{.Total}}</td></tr>{{end}}
</table>
{{else}}<p>No orders yet.</p>{{end}}
{{template "footer" .}}{{end}}

{{define "checkedout"}}{{template "header" .}}
<h1>Thank you!</h1>
<p>Order #{{.OrderID}} placed — total {{.Total}}.</p>
<p><a href="/">Continue shopping</a></p>
{{template "footer" .}}{{end}}

{{define "error"}}{{template "header" .}}
<div class="error"><h1>Something went wrong</h1><p>{{.Message}}</p></div>
{{template "footer" .}}{{end}}
`

// imgPrefix opens every attribute imgSrc builds.
const imgPrefix = `src="data:image/png;base64,`

// maxPooledScratch bounds the encode buffers b64Scratch keeps. The
// largest full-size product image encodes to about 210 KB; a larger
// buffer is dropped after use rather than pinned in the pool.
const maxPooledScratch = 256 << 10

// b64Scratch recycles imgSrc's base64 encode buffers.
var b64Scratch = sync.Pool{New: func() any { return new([]byte) }}

// imgSrc returns the complete src attribute of a PNG data URI, escaped
// exactly as html/template escapes src="data:image/png;base64,{{.}}": its
// URL normalizer passes the base64 alphabet through and its attribute
// escaper rewrites only '+', as "&#43;". Spliced into a tag as a
// template.HTMLAttr, the attribute is copied verbatim, so the ~170 KB of
// base64 on a page is no longer scanned twice per render. HTMLAttr is
// trusted content: the argument must be image bytes the webui encodes
// itself, never a request or backend string.
func imgSrc(png []byte) template.HTMLAttr {
	scratch := b64Scratch.Get().(*[]byte)
	n := base64.StdEncoding.EncodedLen(len(png))
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	enc := (*scratch)[:n]
	base64.StdEncoding.Encode(enc, png)

	const plusEntity = "&#43;"
	var b strings.Builder
	b.Grow(len(imgPrefix) + n + (len(plusEntity)-1)*bytes.Count(enc, []byte{'+'}) + 1)
	b.WriteString(imgPrefix)
	for {
		i := bytes.IndexByte(enc, '+')
		if i < 0 {
			break
		}
		b.Write(enc[:i])
		b.WriteString(plusEntity)
		enc = enc[i+1:]
	}
	b.Write(enc)
	b.WriteByte('"')

	if cap(*scratch) <= maxPooledScratch {
		b64Scratch.Put(scratch)
	}
	return template.HTMLAttr(b.String())
}
