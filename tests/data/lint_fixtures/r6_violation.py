# lint: module=repro.gateway.fixture_component
"""R6 fixture (violating): plaintext, secrets and error text hit the wire."""


def leak_label_rows(lct, channel, rows, obs):
    # members() de-anonymizes group ids back to raw labels...
    labels = [lct.members(gid) for gid in rows]
    payload = encode_upload(labels)  # ...which then reach a wire codec
    channel.transmit("upload", payload, obs=obs)
    return payload


def log_credentials(client, ring):
    # the credential lands verbatim in the trace log
    ring.push(None, token=client.token)


def frame_reject(reason):
    # helper summary: parameter `reason` reaches a wire codec
    return encode_gateway_reject("r-1", "internal", reason)


def reject_with_internals(request):
    try:
        handle(request)
    except Exception as exc:
        # internal error text flows interprocedurally through the helper
        return frame_reject(f"boom: {exc}")


def wrap_error(request):
    try:
        handle(request)
    except Exception as exc:
        # a boundary exception built from internal error text
        raise GatewayError(f"failed: {exc}") from exc
