"""Example lists as a training step's rows, for the tests that build a ``BatchSpec`` by hand.

``model.loss_and_gradients`` takes the CE and KD rows as ``TableRows`` of
one ``PrefixTable``, as the training loop passes them. Not a test module:
pytest collects only ``test_*.py``.
"""

from cyclerec.model import BatchSpec, TableRows


def batch_spec(model, ce=(), kd=(), **fields) -> BatchSpec:
    """A ``BatchSpec`` whose CE rows, then its KD rows, are the rows of one table of their own."""
    rows = TableRows.of([*ce, *kd], model.config.max_seq_len)
    return BatchSpec(ce_examples=rows[: len(ce)], kd_examples=rows[len(ce) :], **fields)
