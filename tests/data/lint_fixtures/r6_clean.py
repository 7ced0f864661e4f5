# lint: module=repro.gateway.fixture_component
"""R6 fixture (clean): sanitized, summarized, or allowed-by-design flows."""


def publish_groups(lct, labels, channel, obs):
    # group_of is a declared sanitizer: raw labels -> published ids
    groups = [lct.group_of(label) for label in labels]
    payload = encode_upload(groups)
    channel.transmit("upload", payload, obs=obs)
    return payload


def summarize_expansion(lct, gids, ring):
    # len() is declared neutral: a count is not content
    size = len([lct.members(gid) for gid in gids])
    ring.push(None, size=size)


def hello(conn, client):
    # the hello frame is the credential carrier by design (allows=secret)
    return encode_gateway_hello(conn.client_id, client.token)


def reject_safely(request):
    try:
        handle(request)
    except Exception as exc:
        # only the exception *type* crosses the wire
        return encode_gateway_reject("r-1", "internal", type(exc).__name__)
