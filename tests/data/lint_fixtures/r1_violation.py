# lint: module=repro.cloud.fixture_component
"""R1 fixture (violating): the cloud reaching across the trust boundary."""

import repro.core.data_owner  # the owner holds plaintext G
from repro.anonymize.lct import LabelCorrespondenceTable  # the private LCT
from repro.client.expansion import expand_matches  # client-side plaintext
from repro.kauto.partition import partition_graph  # the owner's partitioner


def peek() -> None:
    # imports nested inside functions are caught too
    from ..client import filtering  # resolves to repro.client

    filtering, expand_matches, LabelCorrespondenceTable, partition_graph, repro
