// removed_routes_test.go pins that each deployment serves ONE API: the
// retired one-item-per-request HTTP routes, the shardd health alias and
// the per-item scatter exchange answer 404, and a router-side client that
// meets a shardd without the query stream fails the call instead of
// degrading to another wire path.
package shardrpc

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/server"
)

func TestRemovedRoutesAnswer404(t *testing.T) {
	const token = "route-test-token"
	open := server.New(core.New(core.Config{Categories: []string{"music"}}))
	guarded := server.New(core.New(core.Config{Categories: []string{"music"}}))
	guarded.AuthToken = token
	shardd, err := NewServer(0, 1)
	if err != nil {
		t.Fatal(err)
	}

	type probe struct {
		name          string
		h             http.Handler
		method, path  string
		authorization string
	}
	var probes []probe
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/recommend"},
		{http.MethodPost, "/v1/observe"},
		{http.MethodPost, "/v1/items"},
		{http.MethodGet, "/v1/stats"},
	} {
		probes = append(probes,
			probe{"server" + route.path, open.Handler(), route.method, route.path, ""},
			probe{"auth-server" + route.path + "/no-token", guarded.Handler(), route.method, route.path, ""},
			probe{"auth-server" + route.path + "/token", guarded.Handler(), route.method, route.path, "Bearer " + token},
		)
	}
	probes = append(probes,
		probe{"shardd/health", shardd.Handler(), http.MethodGet, "/shard/v1/health", ""},
		probe{"shardd/recommend", shardd.Handler(), http.MethodPost, "/shard/v1/recommend", ""},
	)
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			req := httptest.NewRequest(p.method, p.path, strings.NewReader(`{}`))
			if p.authorization != "" {
				req.Header.Set("Authorization", p.authorization)
			}
			rr := httptest.NewRecorder()
			p.h.ServeHTTP(rr, req)
			if rr.Code != http.StatusNotFound {
				t.Fatalf("%s %s = %d, want 404", p.method, p.path, rr.Code)
			}
		})
	}

	t.Run("query-stream-404", func(t *testing.T) {
		tc := buildTinyCorpus()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		hs := srv.NewHTTPServer(ln.Addr().String())
		hs.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == pathQueryStream {
				http.NotFound(w, r)
				return
			}
			srv.Handler().ServeHTTP(w, r)
		})
		go hs.Serve(ln) //nolint:errcheck // closed by Cleanup
		t.Cleanup(func() { hs.Close() })

		c := NewClient(ln.Addr().String(), 0, 1)
		t.Cleanup(c.Close)
		if err := c.Handoff(context.Background(), tinySnapshot(t)); err != nil {
			t.Fatalf("handoff: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := c.Recommend(ctx, tc.query, core.ResolveOptions(core.WithK(3)), nil)
		if err == nil {
			t.Fatalf("recommend against a 404 query stream succeeded with %d recs", len(res.Recommendations))
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("recommend hung until the deadline: %v", err)
		}
		if !strings.Contains(err.Error(), "404") {
			t.Fatalf("err = %v, want the 404 status", err)
		}
	})
}
