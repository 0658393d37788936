#!/bin/sh
# Tier-1 verification: gofmt, vet, build, and race-test the whole module.
# Keep this the single source of truth for "is the tree healthy" —
# CI and ROADMAP.md both point here.
set -eux
cd "$(dirname "$0")"
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race ./...
