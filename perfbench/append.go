package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"wwb/internal/chrome"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// appendMonth is the month every append op rolls the base forward by.
const appendMonth = world.Mar2022

// appendOp does what `wwbgen -append 2022-03 -base base.wwb -roll-dist`
// does: decode the base, regenerate its world from the base's
// provenance, append March with the distribution month rolled forward,
// and encode the .wwbd delta bound to the base. It returns the delta
// bytes and how many keys the append added to the interned index.
func appendOp(e *env, parent int, op int64, basePath string) ([]byte, int, error) {
	s := e.tr.begin("chrome.DecodeAnyPath(base)", parent, op)
	ds, info, err := chrome.DecodeAnyPath(basePath)
	e.tr.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("decoding base: %w", err)
	}
	keysBefore := ds.Index().NumKeys()
	wcfg, err := world.ConfigForScale(info.Provenance.Scale)
	if err != nil {
		return nil, 0, err
	}
	wcfg.Seed = info.Provenance.WorldSeed
	s = e.tr.beginMem("world.Generate", parent, op)
	w := world.Generate(wcfg)
	e.tr.end(s)
	s = e.tr.beginMem("chrome.AppendMonthCtx", parent, op)
	inc, err := chrome.AppendMonthCtx(context.Background(), ds, w, telemetry.DefaultConfig(),
		chrome.AppendOptions{Month: appendMonth, RollDist: true, Workers: e.nproc})
	e.tr.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("appending: %w", err)
	}
	keysAdded := ds.Index().NumKeys() - keysBefore

	s = e.tr.begin("os.ReadFile(base)", parent, op)
	baseData, err := os.ReadFile(basePath)
	e.tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	base := chrome.DeltaBase{
		Name:       filepath.Base(basePath),
		Size:       uint64(len(baseData)),
		CRC:        chrome.SnapshotFileCRC(baseData),
		Provenance: info.Provenance,
	}
	var buf bytes.Buffer
	s = e.tr.beginMem("chrome.EncodeDelta", parent, op)
	err = chrome.EncodeDelta(&buf, inc, base, provFor(info.Provenance.WorldSeed))
	e.tr.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("encoding delta: %w", err)
	}
	return buf.Bytes(), keysAdded, nil
}

// runAppend is the append workload: one op is one monthly roll of a
// six-month default-scale base built in set-up, written as a .wwbd
// delta. The first op's delta is the reference every later op must
// equal, and the run checks the reference itself: the base+delta
// chain, re-encoded, must equal a from-scratch build of Sep 2021–Mar
// 2022.
func runAppend(e *env) (*report, error) {
	rep := newReport()
	basePath := filepath.Join(e.dir, "base.wwb")
	chainPath := filepath.Join(e.dir, "base+mar.wwbd")
	var baseCRC, refCRC uint32
	var ref []byte
	setup, err := repeatSetup(e, setups, func(i int) error {
		data, _, err := buildArtifact(e, 0, setupOp, nil, world.Feb2022)
		if err != nil {
			return err
		}
		if i > 0 && crc32.Checksum(data, castagnoli) != baseCRC {
			return fmt.Errorf("base artifact differs between set-ups: the build is not deterministic")
		}
		baseCRC = crc32.Checksum(data, castagnoli)
		return writeArtifact(e, 0, setupOp, basePath, data)
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	times, rss, err := timeOps(e, rep, func(i int64) error {
		root := e.tr.begin("op", 0, i)
		defer e.tr.end(root)
		delta, added, err := appendOp(e, root, i, basePath)
		if err != nil {
			return err
		}
		e.tr.count("chrome.index_keys_added", float64(added))
		if i == 0 {
			ref, refCRC = delta, crc32.Checksum(delta, castagnoli)
			return writeArtifact(e, root, i, chainPath, delta)
		}
		path := filepath.Join(e.dir, fmt.Sprintf("op-%d.wwbd", i))
		if err := writeArtifact(e, root, i, path, delta); err != nil {
			return err
		}
		defer os.Remove(path)
		if crc := crc32.Checksum(delta, castagnoli); crc != refCRC || len(delta) != len(ref) {
			return fmt.Errorf("op %d: delta crc32c %08x (%d bytes), first op's %08x (%d bytes)", i, crc, len(delta), refCRC, len(ref))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ref == nil {
		return nil, fmt.Errorf("the first append op failed: %v", rep.tally.first)
	}
	opMetrics(e, rep, times)
	rep.e2e["peak_rss_mib"] = rss
	rep.e2e["artifact_mib"] = float64(len(ref)) / (1 << 20)

	// load_ms: open the base+delta chain and answer the first /v1/list.
	var chained *chrome.Dataset
	rep.e2e["load_ms"], err = probeLoad(e, func() error {
		s := e.tr.begin("chrome.DecodeAnyPath(chain)", 0, setupOp)
		ds, _, err := chrome.DecodeAnyPath(chainPath)
		e.tr.end(s)
		if err != nil {
			return err
		}
		chained = ds
		return firstList(ds)
	})
	if err != nil {
		return nil, err
	}

	rep.tally.add(checkRebuild(e, chained))
	if e.traced {
		if err := traceServing(e, rep, basePath); err != nil {
			return nil, err
		}
	}
	layerMetrics(e, rep)
	return rep, nil
}

// checkRebuild is the append-vs-rebuild identity: the decoded chain,
// re-encoded, must be byte-identical to a from-scratch build of the
// extended window with the distribution month rolled to March.
func checkRebuild(e *env, chained *chrome.Dataset) error {
	var fromChain bytes.Buffer
	if err := chained.EncodeSnapshot(&fromChain, provFor(e.seed)); err != nil {
		return fmt.Errorf("re-encoding the chain: %w", err)
	}
	months, err := world.MonthRange("2021-09..2022-03")
	if err != nil {
		return err
	}
	// The oracle build runs untraced: its spans would mix a 7-month
	// assembly into the set-up layer figures.
	quiet := *e
	quiet.tr = newTracer(false)
	rebuilt, _, err := buildArtifact(&quiet, 0, setupOp, months, appendMonth)
	if err != nil {
		return fmt.Errorf("rebuilding: %w", err)
	}
	if !bytes.Equal(fromChain.Bytes(), rebuilt) {
		return fmt.Errorf("base+delta chain re-encoded (%d bytes) differs from the Sep 2021–Mar 2022 rebuild (%d bytes)",
			fromChain.Len(), len(rebuilt))
	}
	fmt.Fprintf(e.out, "append-vs-rebuild identity: %d bytes identical\n", len(rebuilt))
	return nil
}

// traceAppend measures the append layers in a traced build or serve
// run: it rolls the workload's .wwb forward by one month as an append
// op does, then decodes the base+delta chain.
func traceAppend(e *env, rep *report, basePath string) error {
	delta, added, err := appendOp(e, 0, setupOp, basePath)
	if err != nil {
		return err
	}
	e.tr.count("chrome.index_keys_added", float64(added))
	chainPath := filepath.Join(filepath.Dir(basePath), "traced+mar.wwbd")
	if err := writeArtifact(e, 0, setupOp, chainPath, delta); err != nil {
		return err
	}
	s := e.tr.begin("chrome.DecodeAnyPath(chain)", 0, setupOp)
	_, _, err = chrome.DecodeAnyPath(chainPath)
	e.tr.end(s)
	return err
}
