package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/dataset"
	"ssrec/internal/evalx"
	"ssrec/internal/model"
)

// trainedEngine trains an engine deterministically on the leading third
// of a small generated stream. Calling it twice yields twins: identical
// training, identical state.
func trainedEngine(t testing.TB) (*core.Engine, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.YTubeConfig(0.2)
	cfg.Seed = 31
	ds := dataset.Generate(cfg)
	eng := core.New(core.Config{Categories: ds.Categories, TrainMaxIter: 5, Restarts: 1})
	if err := evalx.Train(eng, ds, evalx.Setup{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	return eng, ds
}

func testServer(t testing.TB) (*Server, *dataset.Dataset) {
	t.Helper()
	eng, ds := trainedEngine(t)
	return New(eng), ds
}

func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

func itemBody(v model.Item) map[string]any {
	return map[string]any{
		"id": v.ID, "category": v.Category, "producer": v.Producer,
		"entities": v.Entities, "timestamp": v.Timestamp,
	}
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	rr := get(t, s.Handler(), "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rr.Code)
	}
}

// recommendOne asks POST /v2/recommend for one item's top k (k <= 0
// leaves k to the server default) and returns that item's result.
func recommendOne(t *testing.T, h http.Handler, v model.Item, k int) resultV2JSON {
	t.Helper()
	body := map[string]any{"items": []map[string]any{itemBody(v)}}
	if k > 0 {
		body["k"] = k
	}
	rr := post(t, h, "/v2/recommend", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeV2(t, rr)
	if len(resp.Results) != 1 {
		t.Fatalf("%d results, want 1", len(resp.Results))
	}
	return resp.Results[0]
}

func TestRecommendEndpoint(t *testing.T) {
	s, ds := testServer(t)
	v := ds.Items[len(ds.Items)-1]
	res := recommendOne(t, s.Handler(), v, 5)
	if res.ItemID != v.ID || res.Error != nil {
		t.Fatalf("result = %+v, want item %s without error", res, v.ID)
	}
	if len(res.Recommendations) == 0 || len(res.Recommendations) > 5 {
		t.Errorf("got %d recommendations", len(res.Recommendations))
	}
	for i := 1; i < len(res.Recommendations); i++ {
		if res.Recommendations[i].Score > res.Recommendations[i-1].Score {
			t.Error("unsorted recommendations")
		}
	}
}

// TestRecommendDefaultsAndCaps: an omitted k means core.DefaultK, and a
// k above MaxK is capped.
func TestRecommendDefaultsAndCaps(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	v := ds.Items[len(ds.Items)-1]
	explicit := recommendOne(t, h, v, core.DefaultK)
	if def := recommendOne(t, h, v, 0); !reflect.DeepEqual(def, explicit) {
		t.Errorf("omitted k answered %d recs, k=%d answered %d", len(def.Recommendations), core.DefaultK, len(explicit.Recommendations))
	}
	s.MaxK = 3
	if res := recommendOne(t, h, v, 50); len(res.Recommendations) != 3 {
		t.Errorf("MaxK not enforced: %d recs, want 3", len(res.Recommendations))
	}
}

// TestRecommendValidation: an item without id or category is refused per
// item (the batch still answers 200); an unknown request field fails the
// whole request.
func TestRecommendValidation(t *testing.T) {
	s, _ := testServer(t)
	for i, item := range []map[string]any{
		{"category": "x"}, // missing id
		{"id": "a"},       // missing category
	} {
		rr := post(t, s.Handler(), "/v2/recommend", map[string]any{"items": []map[string]any{item}})
		if rr.Code != http.StatusOK {
			t.Fatalf("case %d: status %d", i, rr.Code)
		}
		if res := decodeV2(t, rr).Results[0]; res.Error == nil || res.Error.Code != "invalid_item" {
			t.Errorf("case %d: result %+v, want invalid_item", i, res)
		}
	}
	for i, body := range []map[string]any{
		{"items": []map[string]any{{"id": "a", "category": "x"}}, "unknown_field": 12},
		{"items": []map[string]any{{"id": "a", "category": "x", "unknown_field": 12}}},
	} {
		if rr := post(t, s.Handler(), "/v2/recommend", body); rr.Code != http.StatusBadRequest {
			t.Errorf("unknown field case %d: status %d, want 400", i, rr.Code)
		}
	}
}

// observeOne posts one NDJSON observation line and returns its status
// line and the summary.
func observeOne(t *testing.T, h http.Handler, userID string, v model.Item, ts int64) (status, summary map[string]any) {
	t.Helper()
	rr := postRaw(t, h, "/v2/observe", "application/x-ndjson", []byte(observeLine(userID, v, ts)+"\n"))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	out := ndjsonLines(t, rr.Body.String())
	if len(out) != 2 {
		t.Fatalf("%d response lines, want status + summary:\n%s", len(out), rr.Body)
	}
	return out[0], out[1]
}

func TestObserveEndpoint(t *testing.T) {
	s, ds := testServer(t)
	before := s.eng.Users()
	v := ds.Items[0]
	if st, _ := observeOne(t, s.Handler(), "http-user", v, v.Timestamp+9); st["status"] != "ok" {
		t.Fatalf("status line = %v", st)
	}
	if s.eng.Users() != before+1 {
		t.Errorf("user count %d, want %d", s.eng.Users(), before+1)
	}
}

func TestObserveValidation(t *testing.T) {
	s, ds := testServer(t)
	st, sum := observeOne(t, s.Handler(), "", ds.Items[0], 1)
	if st["status"] != "error" || st["error"].(map[string]any)["code"] != "invalid_observation" {
		t.Fatalf("missing user_id accepted: %v", st)
	}
	if int(sum["applied"].(float64)) != 0 {
		t.Fatalf("summary = %v, want nothing applied", sum)
	}
}

// TestItemEndpoint: a fresh item reaches the engine's dictionaries
// through the /v2/recommend registration prologue.
func TestItemEndpoint(t *testing.T) {
	s, ds := testServer(t)
	eng := s.eng.(*core.Engine)
	v := model.Item{ID: "fresh-http-item", Category: ds.Categories[0], Producer: "up0000",
		Entities: []string{"x"}, Timestamp: 99}
	if !eng.NeedsRegistration([]model.Item{v}) {
		t.Fatal("fresh item already registered")
	}
	if res := recommendOne(t, s.Handler(), v, 5); res.Error != nil {
		t.Fatalf("result error: %+v", res.Error)
	}
	if eng.NeedsRegistration([]model.Item{v}) {
		t.Fatal("item not registered after /v2/recommend")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rr := get(t, s.Handler(), "/v2/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp statsV2Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Users != s.eng.Users() || resp.Blocks == 0 || resp.Trees == 0 || resp.HashKeys == 0 {
		t.Errorf("stats %+v disagree with the engine (%d users)", resp, s.eng.Users())
	}
}

func TestMethodRouting(t *testing.T) {
	s, _ := testServer(t)
	if rr := get(t, s.Handler(), "/v2/recommend"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/recommend = %d, want 405", rr.Code)
	}
	if rr := post(t, s.Handler(), "/v2/stats", map[string]any{}); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v2/stats = %d, want 405", rr.Code)
	}
}

func TestInvalidJSON(t *testing.T) {
	s, _ := testServer(t)
	rr := postRaw(t, s.Handler(), "/v2/recommend", "application/json", []byte("{nope"))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rr.Code)
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := ds.Items[(g*25+i)%len(ds.Items)]
				var rr *httptest.ResponseRecorder
				if g%2 == 0 {
					rr = post(t, h, "/v2/recommend", map[string]any{"items": []map[string]any{itemBody(v)}, "k": 5})
				} else {
					line := observeLine(fmt.Sprintf("load-user-%d", g), v, v.Timestamp+int64(i))
					rr = postRaw(t, h, "/v2/observe", "application/x-ndjson", []byte(line+"\n"))
				}
				if rr.Code != http.StatusOK {
					t.Errorf("goroutine %d request %d: status %d", g, i, rr.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
