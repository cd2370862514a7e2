"""Static SVG 1.1 rendering of nodal extracts.

Sign regions are drawn as row-merged rectangles, the nodal interface as
polylines on the lattice, singular points as markers.  Output is plain text
generated deterministically from the extract, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

POS_COLOR = "#f4a582"
NEG_COLOR = "#92c5de"
LINE_COLOR = "#222222"
INT_MARK = "#d6604d"
BND_MARK = "#4393c3"
SIZE = 480  # pixels along the longer side of the grid


def _fmt(v):
    s = "%.4f" % v
    return s.rstrip("0").rstrip(".") if "." in s else s


def render_svg(extract):
    """SVG document (str) for a NodalExtract."""
    sign = extract.sign_field
    ny, nx = sign.shape
    u = extract.field
    scale = SIZE / max(nx, ny)
    width, height = nx * scale, ny * scale

    def px(ix):
        return _fmt(ix * scale)

    def py(iy):
        # SVG y axis points down; grid y axis points up
        return _fmt((ny - iy) * scale)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               'width="%s" height="%s" viewBox="0 0 %s %s">'
               % (_fmt(width), _fmt(height), _fmt(width), _fmt(height)))
    out.append('<rect width="%s" height="%s" fill="#ffffff"/>'
               % (_fmt(width), _fmt(height)))
    # sign cells, merged along rows
    for iy in range(ny):
        ix = 0
        while ix < nx:
            s = sign[iy, ix]
            if s == 0:
                ix += 1
                continue
            run = ix
            while run < nx and sign[iy, run] == s:
                run += 1
            color = POS_COLOR if s > 0 else NEG_COLOR
            out.append('<rect x="%s" y="%s" width="%s" height="%s" fill="%s"/>'
                       % (px(ix), py(iy + 1), _fmt((run - ix) * scale),
                          _fmt(scale), color))
            ix = run
    # nodal interface segments
    for (ax, ay), (bx, by) in extract.segments:
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                   'stroke-width="2"/>'
                   % (px(ax), py(ay), px(bx), py(by), LINE_COLOR))
    # singular markers: positions are in domain coordinates
    h = u.h
    ox, oy = u.origin

    def to_px(x, y):
        return _fmt((x - ox) / h * scale), _fmt((ny - (y - oy) / h) * scale)

    for (x, y), nu in extract.interior_singular:
        cx, cy = to_px(x, y)
        out.append('<circle cx="%s" cy="%s" r="5" fill="%s"><title>'
                   'interior singular, nu=%d</title></circle>'
                   % (cx, cy, INT_MARK, nu))
    for (x, y), rho, comp in extract.boundary_singular:
        cx, cy = to_px(x, y)
        out.append('<rect x="%s" y="%s" width="8" height="8" fill="%s">'
                   '<title>boundary singular, rho=%d, component %d</title>'
                   '</rect>'
                   % (_fmt(float(cx) - 4), _fmt(float(cy) - 4), BND_MARK,
                      rho, comp))
    out.append('</svg>')
    return "\n".join(out) + "\n"
