package main

import "fmt"

// runSelftest checks that the benchmark measures a deterministic
// program fed by its seed: two passes of each workload at one seed
// produce the same trace digest, the next seed produces a different
// one, and city-dist reproduces city-cluster's digest at both seeds.
// Every pass also meets the per-pass output checks.
func runSelftest(seed int64) error {
	digests := make(map[string][3]string)
	for _, name := range workloadNames {
		var d [3]string
		base, err := newWorkload(name)
		if err != nil {
			return err
		}
		for i, s := range []int64{seed, seed, seed + 1} {
			p := runPass(base.scenario(s), nil, 0)
			if err := p.check(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			d[i] = digest(p.records)
			fmt.Printf("%-13s seed %-4d digest %s (%d records, %.1fs)\n", name, s, d[i], len(p.records), p.wall.Seconds())
		}
		if d[0] != d[1] {
			return fmt.Errorf("%s: two runs at seed %d differ: %s vs %s", name, seed, d[0], d[1])
		}
		if d[2] == d[0] {
			return fmt.Errorf("%s: seeds %d and %d give the same digest %s", name, seed, seed+1, d[0])
		}
		digests[name] = d
	}
	c, dd := digests["city-cluster"], digests["city-dist"]
	if c[0] != dd[0] || c[2] != dd[2] {
		return fmt.Errorf("city-dist digests %s/%s differ from city-cluster %s/%s", dd[0], dd[2], c[0], c[2])
	}
	return nil
}
