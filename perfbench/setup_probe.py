"""Time one command's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SCENE.json

Prints {"import_s", "load_s", "build_s"} as JSON: `import ruled4`, then
`load_scene`, then `build_hypersurface`, each timed with perf_counter.
The caller puts the package on PYTHONPATH.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import ruled4
    t1 = time.perf_counter()
    cfg = ruled4.load_scene(sys.argv[1])
    t2 = time.perf_counter()
    ruled4.build_hypersurface(cfg)
    t3 = time.perf_counter()
    import json
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "build_s": t3 - t2, "module": ruled4.__file__}))


if __name__ == "__main__":
    main()
