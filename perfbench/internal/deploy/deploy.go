// Package deploy holds the deployment every benchmark process derives
// independently: node identities, positions and the genesis block.
package deploy

import (
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// Epoch maps engine time to wall-clock timestamps, as in cmd/gpbft-node.
var Epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)

// Key returns node i's deterministic identity.
func Key(i int) *gcrypto.KeyPair { return gcrypto.DeterministicKeyPair(i) }

// Position returns node i's location, as cmd/gpbft-node places it.
func Position(i int) geo.Point {
	return geo.Point{Lng: 114.175 + float64(i)*0.0004, Lat: 22.302 + float64(i%7)*0.0005}
}

// Genesis builds the genesis of an n-endorser cluster with era period
// era and own location-report period report. The committee is the whole
// cluster: MaxEndorsers is n, so no device can be elected into a seat
// that has no process behind it.
func Genesis(n int, era, report time.Duration) *ledger.Genesis {
	g := &ledger.Genesis{ChainID: "perfbench", Timestamp: Epoch, Policy: ledger.DefaultPolicy()}
	g.Policy.EraPeriod = era
	g.Policy.SwitchPeriod = 250 * time.Millisecond
	g.Policy.ReportInterval = report
	g.Policy.QualificationWindow = 3 * era
	g.Policy.MaxEndorsers = n
	for i := 0; i < n; i++ {
		k := Key(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: k.Address(), PubKey: k.Public(),
			Geohash: geo.MustEncode(Position(i), geo.CSCPrecision),
		})
	}
	return g
}
