package main

// heldOutSeed is a seed kept out of tuning: a later speed-up is confirmed
// on it as well as on the default seed.
const heldOutSeed = 20151013

// recordedDigests holds the model.digest of each workload at the default
// and the held-out seed. A speed-only change must reproduce them exactly;
// a deliberate model change re-records them as its own benchmark change.
var recordedDigests = map[string]map[uint64]string{
	"chip-sweep":   {defaultSeed: "ca63a1271cb292dc", heldOutSeed: "5d6458fd6a1a17eb"},
	"rack-sparse":  {defaultSeed: "37f009b898033440", heldOutSeed: "c7b2dfcb02b7f236"},
	"rack-service": {defaultSeed: "bad83a141f085463", heldOutSeed: "91f0376c5a8bfbf8"},
}

func recordedDigest(workload string, seed uint64) (string, bool) {
	d, ok := recordedDigests[workload][seed]
	return d, ok
}
