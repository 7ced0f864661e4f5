# lint: module=repro.core.protocol
"""R8 fixture (violating): envelope, pairing and registry breakage."""

_DECODE_ERRORS = (KeyError, ValueError, TypeError)


class ProtocolError(Exception):
    pass


def encode_ping(seq):
    # one-sided (no decode_ping) AND unregistered ("ping" not in CODEC_TABLE)
    return {"seq": seq}


def encode_query(query):
    return {"query": query}


def decode_query(payload):
    return payload["query"]  # raw KeyError leaks: no envelope at all


def encode_upload(rows):
    return {"rows": rows}


def decode_upload(payload):
    try:
        return payload["rows"]
    except KeyError as exc:  # too narrow: ValueError/TypeError leak
        raise ProtocolError(f"malformed upload message: {exc}") from exc


def encode_answer_table(rows):
    return {"rows": rows}


def decode_answer_table(payload):
    try:
        return payload["rows"]
    except _DECODE_ERRORS as exc:
        # INFO: the message does not follow the "malformed ..." convention
        raise ProtocolError(f"bad answer frame: {exc}") from exc


def encode_gateway_hello(client_id):
    return {"client_id": client_id}


def decode_gateway_hello(payload):
    try:
        return payload["client_id"]
    except _DECODE_ERRORS as exc:
        raise ValueError(f"malformed hello: {exc}") from exc  # wrong envelope


def route(kind, payload):
    if kind == "heartbeat":  # not in FRAME_KINDS
        return None
    return encode_frame("pong", payload)  # not in FRAME_KINDS
