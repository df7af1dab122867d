#!/usr/bin/env python3
"""MPF between *independent* OS processes, rendezvousing by name.

The paper ran "a group of Unix processes" over a mapped shared region
(§4).  This example goes one step further than fork: it launches a
completely separate ``python`` interpreter which attaches to the named
segment created here and exchanges messages with us — two programs that
share nothing but a segment name.

Run:  python examples/independent_processes.py
"""

import subprocess
import sys
import textwrap
import uuid

from repro import FCFS, MPFConfig
from repro.core.inspect import inspect_segment, render_segment
from repro.runtime.posix import PosixSegment

CFG = MPFConfig(max_lnvcs=8, max_processes=4, max_messages=64,
                message_pool_bytes=1 << 16)

WORKER = textwrap.dedent(
    """
    import sys
    from repro import FCFS
    from repro.runtime.posix import PosixSegment

    with PosixSegment.attach(sys.argv[1]) as seg:
        mpf = seg.client(1)
        work = mpf.open_receive("work", FCFS)
        answers = mpf.open_send("answers")
        while True:
            task = mpf.message_receive(work)
            if task == b"EOF":
                break
            mpf.message_send(answers, task[::-1])
        mpf.close_receive(work)
        mpf.close_send(answers)
    """
)


def main() -> None:
    name = f"mpf-demo-{uuid.uuid4().hex[:8]}"
    seg = PosixSegment.create(name, CFG)
    try:
        print(f"created named segment '{name}' "
              f"({seg.view.layout.total_size} bytes in /dev/shm)")
        child = subprocess.Popen([sys.executable, "-c", WORKER, name])
        mpf = seg.client(0)
        work = mpf.open_send("work")
        answers = mpf.open_receive("answers", FCFS)
        for word in (b"stressed", b"repaid", b"drawer"):
            mpf.message_send(work, word)
            print(f"  sent {word.decode():>10}  ->  "
                  f"{mpf.message_receive(answers).decode()}")
        print("\nlive segment state (from the inspector):")
        print(render_segment(inspect_segment(seg.view)))
        mpf.message_send(work, b"EOF")
        child.wait(timeout=60)
        mpf.close_send(work)
        mpf.close_receive(answers)
        print(f"\nchild exited {child.returncode}; unlinking segment")
    finally:
        seg.unlink()


if __name__ == "__main__":
    main()
