"""Regenerate the stored references the output gates compare against.

    python3 bench/make_references.py

Run from the root of a checkout.  The references pin the program's outputs
at the commit that produced them; regenerate them only when a change is
meant to alter results, and say so in the change.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from muskat import grid, snapshots  # noqa: E402

import workloads  # noqa: E402
from workloads import POOL_SIZE, Toolbox, Turnover  # noqa: E402


def turnover_reference(tiny: bool) -> None:
    workload = Turnover()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as workdir:
        inputs = workload.setup(0, tiny, workdir)
        status = workload.run(inputs)
        if status != 0:
            raise SystemExit(f"turnover exited with status {status}")
        final = snapshots.load_snapshot(os.path.join(inputs.out_dir, "snapshot_final.json"))
    payload = {"time": final.time, "n_modes": final.n_modes}
    for key in ("p1", "p2"):  # real and imaginary parts interleaved, as in snapshots
        coeffs = getattr(final, key)
        payload[key] = np.column_stack([coeffs.real, coeffs.imag]).ravel().tolist()
    write(workloads.reference_path(workload.name, inputs.n_modes), payload)


def toolbox_reference(n_modes: int) -> None:
    g = grid.SpectralGrid(n_modes)
    pool = []
    for index in range(POOL_SIZE):
        outputs = workloads.toolbox_outputs(Toolbox.entry(index, g), g)
        pool.append({name: workloads.fingerprint(vector)
                     for name, vector in workloads.checked_vectors(outputs).items()})
    write(workloads.reference_path(Toolbox.name, n_modes), {"n_modes": n_modes, "pool": pool})


def write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    turnover_reference(tiny=False)
    turnover_reference(tiny=True)
    toolbox_reference(256)
    toolbox_reference(32)
