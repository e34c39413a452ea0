"""Spec-building helper for the tests: edits of the default pipeline."""

from repro.compiler import DEFAULT_PIPELINE


def hida_spec(**edits):
    """``DEFAULT_PIPELINE`` with per-stage edits, keyed by stage name.

    ``None`` drops a stage and a string sets its options; ``_`` in a key
    stands for ``-`` in the stage name, e.g.
    ``hida_spec(tile=None, parallelize="factor=8")``.
    """
    names = DEFAULT_PIPELINE.split(",")
    unknown = set(edits) - {name.replace("-", "_") for name in names}
    assert not unknown, f"not a default stage: {sorted(unknown)}"
    stages = []
    for name in names:
        edit = edits.get(name.replace("-", "_"), "")
        if edit is not None:
            stages.append(f"{name}{{{edit}}}" if edit else name)
    return ",".join(stages)
