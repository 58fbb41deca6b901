package main

// Parser for the Prometheus text format the server's /metrics sidecar
// writes, and the delta between two scrapes.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample maps metric name to value for one scrape. The server's
// metrics carry no labels.
type promSample map[string]float64

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// delta is after − before for every name in after; a name missing from
// before counts from zero (a counter the server registered mid-run).
func (after promSample) delta(before promSample) promSample {
	d := promSample{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates o into p.
func (p promSample) add(o promSample) {
	for k, v := range o {
		p[k] += v
	}
}

// c reads a counter as "minerule_<name>_total".
func (p promSample) c(name string) float64 { return p["minerule_"+name+"_total"] }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
