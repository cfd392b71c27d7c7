"""Crossbar timing and message accounting."""

import pytest

from repro import MachineParams
from repro.interconnect import Crossbar, MessageKind


@pytest.fixture
def xbar(small_params):
    return Crossbar(small_params)


class TestMessageKinds:
    def test_block_carriers(self):
        assert MessageKind.BLOCK_REPLY.carries_block
        assert MessageKind.INJECT.carries_block
        assert not MessageKind.READ_REQUEST.carries_block
        assert not MessageKind.ACK.carries_block


class TestLatency:
    def test_request_and_block_costs(self, xbar, small_params):
        assert xbar.transfer(MessageKind.READ_REQUEST, 0, 1, 0) == small_params.request_msg_cycles
        assert xbar.transfer(MessageKind.BLOCK_REPLY, 0, 1, 0) == small_params.block_msg_cycles

    def test_paper_costs(self):
        xbar = Crossbar(MachineParams.paper_baseline())
        assert xbar.transfer(MessageKind.READ_REQUEST, 0, 1, 0) == 16
        assert xbar.transfer(MessageKind.BLOCK_REPLY, 0, 1, 0) == 272

    def test_local_transfer_free(self, xbar):
        assert xbar.transfer(MessageKind.READ_REQUEST, 2, 2, now=100) == 100
        assert xbar.counters["msg_local"] == 1

    def test_remote_transfer_charged(self, xbar, small_params):
        done = xbar.transfer(MessageKind.READ_REQUEST, 0, 1, now=100)
        assert done == 100 + small_params.request_msg_cycles
        assert xbar.counters["msg_remote"] == 1

    def test_per_kind_counting(self, xbar):
        xbar.transfer(MessageKind.INJECT, 0, 1, 0)
        xbar.transfer(MessageKind.INJECT, 0, 2, 0)
        assert xbar.counters["msg_inject"] == 2

    def test_traffic_bytes(self, xbar, small_params):
        xbar.transfer(MessageKind.READ_REQUEST, 0, 1, 0)
        xbar.transfer(MessageKind.BLOCK_REPLY, 1, 0, 0)
        expected = small_params.request_payload_bytes + (
            small_params.am_block + small_params.message_header_bytes
        )
        assert xbar.counters["payload_bytes"] == expected

    def test_local_transfer_moves_no_bytes(self, xbar):
        xbar.transfer(MessageKind.BLOCK_REPLY, 1, 1, 0)
        assert xbar.counters["payload_bytes"] == 0


class TestContention:
    def test_port_serialization(self, small_params):
        xbar = Crossbar(small_params, contention=True)
        cost = small_params.request_msg_cycles
        first = xbar.transfer(MessageKind.READ_REQUEST, 0, 3, now=0)
        second = xbar.transfer(MessageKind.READ_REQUEST, 1, 3, now=0)
        assert first == cost
        assert second == 2 * cost  # queued behind the first
        assert xbar.counters["contention_cycles"] == cost

    def test_distinct_ports_parallel(self, small_params):
        xbar = Crossbar(small_params, contention=True)
        cost = small_params.request_msg_cycles
        assert xbar.transfer(MessageKind.READ_REQUEST, 0, 2, now=0) == cost
        assert xbar.transfer(MessageKind.READ_REQUEST, 1, 3, now=0) == cost

    def test_no_contention_by_default(self, small_params):
        xbar = Crossbar(small_params)
        cost = small_params.request_msg_cycles
        assert xbar.transfer(MessageKind.READ_REQUEST, 0, 3, now=0) == cost
        assert xbar.transfer(MessageKind.READ_REQUEST, 1, 3, now=0) == cost
