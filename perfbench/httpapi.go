package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"ssrec/internal/core"
	"ssrec/internal/model"
)

// v2Client speaks ssrec-server's /v2 API over one keep-alive HTTP/1.1
// connection.
type v2Client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newV2Client(addr string) *v2Client {
	return &v2Client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

func (c *v2Client) close() { c.hc.CloseIdleConnections() }

type itemJSON struct {
	ID          string   `json:"id"`
	Category    string   `json:"category"`
	Producer    string   `json:"producer"`
	Entities    []string `json:"entities"`
	Description string   `json:"description,omitempty"`
	Timestamp   int64    `json:"timestamp"`
}

func toItemJSON(v model.Item) itemJSON {
	return itemJSON{ID: v.ID, Category: v.Category, Producer: v.Producer,
		Entities: v.Entities, Description: v.Description, Timestamp: v.Timestamp}
}

type recommendResponse struct {
	Results []struct {
		ItemID          string `json:"item_id"`
		Recommendations []struct {
			UserID string  `json:"user_id"`
			Score  float64 `json:"score"`
		} `json:"recommendations"`
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	} `json:"results"`
}

// recommend asks POST /v2/recommend for one item's top k and returns the
// answer's digest.
func (c *v2Client) recommend(ctx context.Context, v model.Item, k int) (uint64, error) {
	c.buf.Reset()
	err := json.NewEncoder(&c.buf).Encode(struct {
		Items []itemJSON `json:"items"`
		K     int        `json:"k"`
	}{Items: []itemJSON{toItemJSON(v)}, K: k})
	if err != nil {
		return 0, err
	}
	body, err := c.post(ctx, "/v2/recommend", "application/json")
	if err != nil {
		return 0, err
	}
	var resp recommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("recommend: %w", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ItemID != v.ID {
		return 0, fmt.Errorf("recommend: %d results for one item", len(resp.Results))
	}
	res := resp.Results[0]
	if res.Error != nil {
		return 0, fmt.Errorf("recommend: %s: %s", res.Error.Code, res.Error.Message)
	}
	recs := make([]model.Recommendation, len(res.Recommendations))
	for i, r := range res.Recommendations {
		recs[i] = model.Recommendation{UserID: r.UserID, Score: r.Score}
	}
	return digest(recs), nil
}

// observe posts one batch as NDJSON to POST /v2/observe and checks, from
// the summary line, that the server applied all of it.
func (c *v2Client) observe(ctx context.Context, batch []core.Observation) error {
	c.buf.Reset()
	enc := json.NewEncoder(&c.buf)
	for _, o := range batch {
		err := enc.Encode(struct {
			UserID    string   `json:"user_id"`
			Item      itemJSON `json:"item"`
			Timestamp int64    `json:"timestamp"`
		}{o.UserID, toItemJSON(o.Item), o.Timestamp})
		if err != nil {
			return err
		}
	}
	body, err := c.post(ctx, "/v2/observe", "application/x-ndjson")
	if err != nil {
		return err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = sc.Bytes()
		}
	}
	var sum struct {
		Status  string `json:"status"`
		Applied int    `json:"applied"`
		Error   *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(last, &sum); err != nil {
		return fmt.Errorf("observe summary: %w", err)
	}
	if sum.Status != "done" || sum.Error != nil || sum.Applied != len(batch) {
		return fmt.Errorf("observe: summary %s", last)
	}
	return nil
}

func (c *v2Client) post(ctx context.Context, path, contentType string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(c.buf.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
