//go:build race

package fuzz

const raceEnabled = true
