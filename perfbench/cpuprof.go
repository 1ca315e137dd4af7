package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// profiler starts CPU profiling for about d and returns a function that
// stops it and yields the cpu.* shares of the profiled span.
type profiler func(d time.Duration) (stop func() (map[string]float64, error), err error)

// inProcessProfiler profiles this process with runtime/pprof.
func inProcessProfiler(time.Duration) (func() (map[string]float64, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		p, err := parseProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		return cpuShares(p), nil
	}, nil
}

// daemonProfiler profiles running daemons through their -pprof-addr
// listeners; the shares are over the samples of all of them together.
func daemonProfiler(pprofAddrs []string) profiler {
	return func(d time.Duration) (func() (map[string]float64, error), error) {
		secs := max(1, int(d/time.Second))
		profs := make([]*cpuProfile, len(pprofAddrs))
		errs := make([]error, len(pprofAddrs))
		var wg sync.WaitGroup
		for i, addr := range pprofAddrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				profs[i], errs[i] = fetchProfile(addr, secs)
			}()
		}
		return func() (map[string]float64, error) {
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return nil, err
			}
			return cpuShares(profs...), nil
		}, nil
	}
}

func fetchProfile(addr string, secs int) (*cpuProfile, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(secs+30)*time.Second)
	defer cancel()
	url := fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cpu profile %s: %s: %s", addr, resp.Status, body)
	}
	return parseProfile(body)
}

// shareRules maps each cpu.* metric to the frames that count for it.
var shareRules = []struct {
	metric   string
	prefixes []string
}{
	{"cpu.bihmm_share", []string{"ssrec/internal/bihmm."}},
	{"cpu.cppse_share", []string{"ssrec/internal/cppse."}},
	{"cpu.sigtree_share", []string{"ssrec/internal/sigtree."}},
	{"cpu.shardrpc_share", []string{"ssrec/internal/shardrpc."}},
	{"cpu.server_share", []string{"ssrec/internal/server."}},
	{"cpu.gc_share", []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.wbBuf"}},
}

// cpuShares is, per rule, the fraction of CPU time whose stack holds a
// matching frame.
func cpuShares(profs ...*cpuProfile) map[string]float64 {
	hit := make([]int64, len(shareRules))
	var total int64
	for _, p := range profs {
		for _, s := range p.samples {
			total += s.value
			for i, rule := range shareRules {
				if s.matches(p, rule.prefixes) {
					hit[i] += s.value
				}
			}
		}
	}
	out := map[string]float64{}
	for i, rule := range shareRules {
		out[rule.metric] = 0
		if total > 0 {
			out[rule.metric] = float64(hit[i]) / float64(total)
		}
	}
	return out
}

// cpuProfile is the part of a pprof profile the shares need: each
// sample's stack and its CPU time.
type cpuProfile struct {
	samples   []cpuSample
	locations map[uint64][]uint64 // location id -> function ids (inlined frames)
	functions map[uint64]int64    // function id -> name index
	strings   []string
}

type cpuSample struct {
	locations []uint64
	value     int64 // the last sample value: CPU nanoseconds
}

func (s cpuSample) matches(p *cpuProfile, prefixes []string) bool {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			name := p.name(fn)
			for _, pre := range prefixes {
				if strings.HasPrefix(name, pre) {
					return true
				}
			}
		}
	}
	return false
}

func (p *cpuProfile) name(fn uint64) string {
	i, ok := p.functions[fn]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of a (gzipped) pprof protobuf that
// cpuShares uses: samples (2), locations (4), functions (5) and the
// string table (6).
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s cpuSample
			var values []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locations, v, b)
				case 2:
					return appendPacked(&values, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// appendPacked appends a repeated varint field, packed (b) or not (v).
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
