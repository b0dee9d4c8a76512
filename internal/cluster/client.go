package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
)

// Client is the Manager's pipe to one node. *Agent implements it directly
// (in-process deployments); HTTPClient implements it over the admin
// endpoints (multi-process deployments). Apply must surface a stale
// sequence as msgpass.ErrStaleEpoch (wrapped is fine) — the Manager
// treats staleness as convergence, not failure, when re-broadcasting.
type Client interface {
	Apply(e Epoch) error
	Status() (NodeStatus, error)
	Quiesce(target graph.ProcessID) (QuiesceReport, error)
	Inject(src, dst graph.ProcessID, count int, payload string) (InjectReport, error)
}

var _ Client = (*Agent)(nil)

// HTTPClient speaks the admin surface of one remote node.
type HTTPClient struct {
	// Base is the node's debug endpoint, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil selects a private one with a
	// 10-second timeout (admin calls are small; only epoch application
	// does real work, and that is bounded by the pause barrier). An
	// operator console reaches nodes behind mutual TLS through one that
	// carries the client certificate and the cluster CA pool.
	HTTP *http.Client
}

// NewHTTPClient builds a client for the node at base.
func NewHTTPClient(base string) *HTTPClient {
	return &HTTPClient{Base: base}
}

func (c *HTTPClient) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// errBody is the JSON error envelope every admin handler writes.
type errBody struct {
	Error string `json:"error"`
}

// do performs one request and decodes the JSON response into out (when
// non-nil). Non-2xx responses become errors carrying the server's error
// string; 409 wraps msgpass.ErrStaleEpoch so errors.Is sees through it.
func (c *HTTPClient) do(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		if resp.StatusCode == http.StatusConflict {
			return fmt.Errorf("%w: %s", msgpass.ErrStaleEpoch, eb.Error)
		}
		if eb.Error == "" {
			eb.Error = resp.Status
		}
		return fmt.Errorf("cluster: %s %s: %s", method, path, eb.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Apply POSTs the epoch at the node.
func (c *HTTPClient) Apply(e Epoch) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(e); err != nil {
		return err
	}
	return c.do(http.MethodPost, "/admin/epoch", &buf, nil)
}

// Status fetches the node's cluster view.
func (c *HTTPClient) Status() (NodeStatus, error) {
	var st NodeStatus
	err := c.do(http.MethodGet, "/admin/status", nil, &st)
	return st, err
}

// Quiesce probes the node's remaining work for target.
func (c *HTTPClient) Quiesce(target graph.ProcessID) (QuiesceReport, error) {
	var rep QuiesceReport
	err := c.do(http.MethodGet, "/admin/quiesce?target="+strconv.Itoa(int(target)), nil, &rep)
	return rep, err
}

// Deliveries fetches the node's delivery ledger. Not part of the Client
// interface — the Manager never needs it; external judges do.
func (c *HTTPClient) Deliveries() ([]DeliveryRec, error) {
	var ds []DeliveryRec
	err := c.do(http.MethodGet, "/admin/deliveries", nil, &ds)
	return ds, err
}

// Inject asks the node to send count messages src→dst.
func (c *HTTPClient) Inject(src, dst graph.ProcessID, count int, payload string) (InjectReport, error) {
	q := url.Values{}
	q.Set("src", strconv.Itoa(int(src)))
	q.Set("dst", strconv.Itoa(int(dst)))
	q.Set("count", strconv.Itoa(count))
	q.Set("payload", payload)
	var rep InjectReport
	err := c.do(http.MethodPost, "/admin/inject?"+q.Encode(), nil, &rep)
	return rep, err
}
